(** Minimal s-expressions, used as the on-the-wire / on-disk codec for the
    data model, execution logs and transaction records (no JSON library is
    vendored; s-expressions parse fast and print deterministically). *)

type t = Atom of string | List of t list

val equal : t -> t -> bool

(** Deterministic single-line rendering; atoms are quoted when needed. *)
val to_string : t -> string

(** Inverse of {!to_string}; also accepts surrounding whitespace and [;]
    line comments (goal files and scenarios annotate themselves). *)
val of_string : string -> (t, string) result

(** {1 Construction helpers} *)

val atom : string -> t
val of_int : int -> t
val of_float : float -> t
val of_bool : bool -> t

(** {1 Destruction helpers} *)

val to_int : t -> (int, string) result
val to_float : t -> (float, string) result
val to_bool : t -> (bool, string) result
val to_atom : t -> (string, string) result
val to_list : t -> (t list, string) result

(** [map_result f xs] decodes every element with [f], in order; the
    first error wins. *)
val map_result : ('a -> ('b, string) result) -> 'a list -> ('b list, string) result

(** [assoc key fields] looks up [(key v)] in a list of two-element lists. *)
val assoc : string -> t list -> (t, string) result
