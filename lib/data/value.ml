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

let rec to_sexp = function
  | Null -> Sexp.List [ Sexp.Atom "null" ]
  | Bool b -> Sexp.List [ Sexp.Atom "bool"; Sexp.of_bool b ]
  | Int i -> Sexp.List [ Sexp.Atom "int"; Sexp.of_int i ]
  | Float f -> Sexp.List [ Sexp.Atom "float"; Sexp.of_float f ]
  | Str s -> Sexp.List [ Sexp.Atom "str"; Sexp.Atom s ]
  | List xs -> Sexp.List (Sexp.Atom "list" :: List.map to_sexp xs)

let ( let* ) r f = Result.bind r f

let rec of_sexp sexp =
  match sexp with
  | Sexp.List [ Sexp.Atom "null" ] -> Ok Null
  | Sexp.List [ Sexp.Atom "bool"; b ] ->
    let* b = Sexp.to_bool b in
    Ok (Bool b)
  | Sexp.List [ Sexp.Atom "int"; i ] ->
    let* i = Sexp.to_int i in
    Ok (Int i)
  | Sexp.List [ Sexp.Atom "float"; f ] ->
    let* f = Sexp.to_float f in
    Ok (Float f)
  | Sexp.List [ Sexp.Atom "str"; Sexp.Atom s ] -> Ok (Str s)
  | Sexp.List (Sexp.Atom "list" :: xs) ->
    let* xs = Sexp.map_result of_sexp xs in
    Ok (List xs)
  | other -> Error ("Value.of_sexp: bad value " ^ Sexp.to_string other)

let as_bool = function Bool b -> Some b | _ -> None
let as_int = function Int i -> Some i | _ -> None
let as_number = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let as_str = function Str s -> Some s | _ -> None
let as_list = function List xs -> Some xs | _ -> None
