(** Attribute values stored at data-model nodes and passed to actions. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Codec} Typed by shape: [n], [t], [f], [3], [~2.5] (as
    {!Sexp.Print.float}), ['a] or ["'a b"], and [(n t (3))] for a list. *)

val print : Sexp.Print.t -> t -> unit
val read : Sexp.Read.t -> t

(** {1 Typed accessors} — [None] on a type mismatch. *)

val as_bool : t -> bool option
val as_int : t -> int option

(** [as_number] accepts both [Int] and [Float]. *)
val as_number : t -> float option

val as_str : t -> string option
val as_list : t -> t list option
