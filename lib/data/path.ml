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

let print p path = Sexp.Print.atom p (to_string path)

let read r =
  match of_string (Sexp.Read.atom r) with
  | Ok path -> path
  | Error msg -> Sexp.Read.fail r msg
