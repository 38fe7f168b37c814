type t = Atom of string | List of t list

let rec equal a b =
  match a, b with
  | Atom x, Atom y -> String.equal x y
  | List xs, List ys ->
    (try List.for_all2 equal xs ys with Invalid_argument _ -> false)
  | Atom _, List _ | List _, Atom _ -> false

let atom s = Atom s
let of_int i = Atom (string_of_int i)

(* %h is an exact hexadecimal representation, so float round-trips are
   lossless; plain integers stay readable. *)
let of_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Atom (Printf.sprintf "%.0f." f)
  else Atom (Printf.sprintf "%h" f)

let of_bool b = Atom (if b then "true" else "false")

let needs_quoting s =
  String.length s = 0
  || String.exists
       (fun c ->
         match c with
         | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | '\\' | ';' -> true
         | c -> Char.code c < 32 || Char.code c = 127)
       s

let escaped_char = function
  | '"' -> Some '"'
  | '\\' -> Some '\\'
  | '\n' -> Some 'n'
  | '\t' -> Some 't'
  | '\r' -> Some 'r'
  | _ -> None

(* Printed length, so [to_string] fills one exactly-sized buffer instead of
   doubling a [Buffer] through megabytes of store snapshot. *)
let rec printed_length = function
  | Atom s when needs_quoting s ->
    String.fold_left
      (fun n c -> n + if escaped_char c = None then 1 else 2)
      2 s
  | Atom s -> String.length s
  | List [] -> 2
  | List xs ->
    (* two parentheses and a space between neighbours: n + 1 separators *)
    List.fold_left (fun n x -> n + 1 + printed_length x) 1 xs

let to_string sexp =
  let out = Bytes.create (printed_length sexp) in
  let put pos c =
    Bytes.unsafe_set out pos c;
    pos + 1
  in
  let rec go pos = function
    | Atom s when needs_quoting s ->
      put
        (String.fold_left
           (fun pos c ->
             match escaped_char c with
             | Some e -> put (put pos '\\') e
             | None -> put pos c)
           (put pos '"') s)
        '"'
    | Atom s ->
      Bytes.blit_string s 0 out pos (String.length s);
      pos + String.length s
    | List [] -> put (put pos '(') ')'
    | List (x :: xs) ->
      put
        (List.fold_left (fun pos x -> go (put pos ' ') x) (go (put pos '(') x) xs)
        ')'
  in
  ignore (go 0 sexp);
  Bytes.unsafe_to_string out


exception Parse_error of string

let of_string input =
  let n = String.length input in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  (* [;] starts a comment running to end of line — the atom printer quotes
     any atom containing [;], so reading back printed output is safe. *)
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | Some ';' ->
      let rec to_eol () =
        match peek () with
        | Some '\n' | None -> ()
        | Some _ ->
          advance ();
          to_eol ()
      in
      to_eol ();
      skip_ws ()
    | Some _ | None -> ()
  in
  let parse_quoted () =
    advance ();
    (* opening quote *)
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char buf '"'
         | Some '\\' -> Buffer.add_char buf '\\'
         | Some 'n' -> Buffer.add_char buf '\n'
         | Some 't' -> Buffer.add_char buf '\t'
         | Some 'r' -> Buffer.add_char buf '\r'
         | Some c -> fail (Printf.sprintf "bad escape \\%c" c)
         | None -> fail "unterminated escape");
        advance ();
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Atom (Buffer.contents buf)
  in
  let parse_bare () =
    let start = !pos in
    let rec go () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r' | '(' | ')' | '"') | None -> ()
      | Some _ ->
        advance ();
        go ()
    in
    go ();
    if !pos = start then fail "empty atom";
    Atom (String.sub input start (!pos - start))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '(' ->
      advance ();
      let rec items acc =
        skip_ws ();
        match peek () with
        | Some ')' ->
          advance ();
          List (List.rev acc)
        | None -> fail "unterminated list"
        | Some _ -> items (parse_value () :: acc)
      in
      items []
    | Some ')' -> fail "unexpected ')'"
    | Some '"' -> parse_quoted ()
    | Some _ -> parse_bare ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let to_atom = function
  | Atom s -> Ok s
  | List _ -> Error "expected atom, got list"

let to_list = function
  | List xs -> Ok xs
  | Atom s -> Error (Printf.sprintf "expected list, got atom %S" s)

let to_int sexp =
  match sexp with
  | Atom s ->
    (match int_of_string_opt s with
     | Some i -> Ok i
     | None -> Error (Printf.sprintf "not an int: %S" s))
  | List _ -> Error "expected int, got list"

let to_float sexp =
  match sexp with
  | Atom s ->
    (match float_of_string_opt s with
     | Some f -> Ok f
     | None -> Error (Printf.sprintf "not a float: %S" s))
  | List _ -> Error "expected float, got list"

let to_bool sexp =
  match sexp with
  | Atom "true" -> Ok true
  | Atom "false" -> Ok false
  | Atom s -> Error (Printf.sprintf "not a bool: %S" s)
  | List _ -> Error "expected bool, got list"

let map_result f xs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (match f x with Ok y -> go (y :: acc) rest | Error _ as e -> e)
  in
  go [] xs

let assoc key fields =
  let matches = function
    | List (Atom k :: _) -> String.equal k key
    | List _ | Atom _ -> false
  in
  match List.find_opt matches fields with
  | Some (List [ _; v ]) -> Ok v
  | Some (List (_ :: vs)) -> Ok (List vs)
  | Some _ | None -> Error (Printf.sprintf "missing field %S" key)
