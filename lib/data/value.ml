type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list

let rec equal a b =
  match a, b with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | List xs, List ys ->
    (try List.for_all2 equal xs ys with Invalid_argument _ -> false)
  | (Null | Bool _ | Int _ | Float _ | Str _ | List _), _ -> false

let tag = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | Str _ -> 4
  | List _ -> 5

let rec compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | List xs, List ys -> List.compare compare xs ys
  | _, _ -> Int.compare (tag a) (tag b)

let rec pp fmt = function
  | Null -> Format.pp_print_string fmt "null"
  | Bool b -> Format.pp_print_bool fmt b
  | Int i -> Format.pp_print_int fmt i
  | Float f -> Format.fprintf fmt "%g" f
  | Str s -> Format.fprintf fmt "%S" s
  | List xs ->
    Format.fprintf fmt "[@[%a@]]"
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.fprintf fmt ";@ ")
         pp)
      xs

let to_string v = Format.asprintf "%a" pp v

module Print = Sexp.Print
module Read = Sexp.Read

(* Codec: (null) (bool <b>) (int <i>) (float <f>) (str <s>) (list <v>...) *)
let rec print p v =
  Print.list p (fun p ->
      match v with
      | Null -> Print.atom p "null"
      | Bool b ->
        Print.atom p "bool";
        Print.atom p (if b then "true" else "false")
      | Int i ->
        Print.atom p "int";
        Print.int p i
      | Float f ->
        Print.atom p "float";
        Print.float p f
      | Str s ->
        Print.atom p "str";
        Print.atom p s
      | List xs ->
        Print.atom p "list";
        List.iter (print p) xs)

let rec read r =
  Read.enter r;
  let v =
    match Read.atom r with
    | "null" -> Null
    | "bool" ->
      (match Read.atom r with
       | "true" -> Bool true
       | "false" -> Bool false
       | s -> Read.fail r (Printf.sprintf "not a bool: %S" s))
    | "int" -> Int (Read.int r)
    | "float" -> Float (Read.float r)
    | "str" -> Str (Read.atom r)
    | "list" ->
      let rec items acc =
        if Read.at_end r then List (List.rev acc) else items (read r :: acc)
      in
      items []
    | tag -> Read.fail r (Printf.sprintf "bad value tag %S" tag)
  in
  Read.leave r;
  v

let as_bool = function Bool b -> Some b | _ -> None
let as_int = function Int i -> Some i | _ -> None
let as_number = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let as_str = function Str s -> Some s | _ -> None
let as_list = function List xs -> Some xs | _ -> None
