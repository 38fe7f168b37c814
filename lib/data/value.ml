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

(* Codec: a value is typed by its shape, with no tag: [n], [t], [f],
   decimal digits for an int, a [~] float, a ['] string and a list in
   parentheses. *)
let rec print p = function
  | Null -> Print.atom p "n"
  | Bool b -> Print.atom p (if b then "t" else "f")
  | Int i -> Print.int p i
  | Float f -> Print.float p f
  | Str s -> Print.marked p '\'' s
  | List xs -> Print.list p (fun p -> List.iter (print p) xs)

let word r w v =
  Read.expect r w;
  v

let rec read r =
  match Read.mark r with
  | '(' -> List (Read.list r read)
  | '\'' -> Str (Read.marked r '\'')
  | '~' -> Float (Read.float r)
  | '-' | '0' .. '9' -> Int (Read.int r)
  | 'n' -> word r "n" Null
  | 't' -> word r "t" (Bool true)
  | 'f' -> word r "f" (Bool false)
  | ')' | '\000' -> Read.fail r "expected a value"
  | c -> Read.fail r (Printf.sprintf "unknown value mark %C" c)

let as_bool = function Bool b -> Some b | _ -> None
let as_int = function Int i -> Some i | _ -> None
let as_number = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let as_str = function Str s -> Some s | _ -> None
let as_list = function List xs -> Some xs | _ -> None
