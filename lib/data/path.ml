(* Represented as the segment list from the root down; root = []. *)
type t = string list

let root = []
let equal = List.equal String.equal
let compare = List.compare String.compare
let segments p = p
let depth = List.length
let is_root p = p = []

let valid_segment_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
  | '_' | '.' | ':' | '+' | '=' | '@' | '-' -> true
  | _ -> false

let valid_segment s = String.length s > 0 && String.for_all valid_segment_char s

let to_string p =
  match p with [] -> "/" | segs -> "/" ^ String.concat "/" segs

let pp fmt p = Format.pp_print_string fmt (to_string p)

let of_string s =
  if String.length s = 0 || s.[0] <> '/' then
    Error (Printf.sprintf "path must start with '/': %S" s)
  else if String.equal s "/" then Ok []
  else
    let segs = String.split_on_char '/' (String.sub s 1 (String.length s - 1)) in
    if List.for_all valid_segment segs then Ok segs
    else Error (Printf.sprintf "malformed path: %S" s)

let v s =
  match of_string s with
  | Ok p -> p
  | Error msg -> invalid_arg ("Path.v: " ^ msg)

let child p seg =
  if not (valid_segment seg) then
    invalid_arg (Printf.sprintf "Path.child: malformed segment %S" seg);
  p @ [ seg ]

let parent p =
  match List.rev p with [] -> None | _ :: rev -> Some (List.rev rev)

let basename p = match List.rev p with [] -> None | last :: _ -> Some last

let rec is_prefix p q =
  match p, q with
  | [], _ -> true
  | _ :: _, [] -> false
  | a :: p', b :: q' -> String.equal a b && is_prefix p' q'

let ancestors p =
  let rec go acc current =
    match parent current with
    | None -> acc
    | Some up -> go (up :: acc) up
  in
  List.rev (go [] p)

let append p q = p @ q

module Id = struct
  type path = t

  type id = {
    uid : int;
    path : path;
    ancestors : id list; (* nearest (parent) first, ending with the root *)
  }

  (* One global interning table: nodes are identified by (parent uid,
     segment), so interning a path walks its segments from the root and
     each step is a single small-key hash lookup.  The table only ever
     grows, but it is bounded by the number of distinct paths the process
     locks — the same order as the resource tree itself. *)
  let table : (int * string, id) Hashtbl.t = Hashtbl.create 1024
  let next_uid = ref 1

  let root = { uid = 0; path = []; ancestors = [] }

  let intern p =
    let step node seg =
      match Hashtbl.find_opt table (node.uid, seg) with
      | Some child -> child
      | None ->
        let uid = !next_uid in
        incr next_uid;
        let child =
          {
            uid;
            path = node.path @ [ seg ];
            ancestors = node :: node.ancestors;
          }
        in
        Hashtbl.replace table (node.uid, seg) child;
        child
    in
    List.fold_left step root p

  let path node = node.path
  let uid node = node.uid
  let ancestors node = node.ancestors
end

let to_sexp p = Sexp.Atom (to_string p)

let of_sexp sexp =
  match sexp with
  | Sexp.Atom s -> of_string s
  | Sexp.List _ -> Error "Path.of_sexp: expected atom"
