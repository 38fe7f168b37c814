(** Resource object paths in the hierarchical data model,
    e.g. [/vmRoot/vmHost3/vm17].

    Segments may contain letters, digits and [_ . : + = @ -]; the root path
    is ["/"]. *)

type t

val root : t
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Parse ["/a/b"]; rejects empty or malformed segments. *)
val of_string : string -> (t, string) result

(** Like {!of_string} but raises [Invalid_argument]; for literals in code. *)
val v : string -> t

(** [seg] is a non-empty string of the characters a segment may hold. *)
val valid_segment : string -> bool

(** [child p seg] appends one segment.
    @raise Invalid_argument on a malformed segment. *)
val child : t -> string -> t

(** [parent p] is [None] for the root. *)
val parent : t -> t option

(** Last segment; [None] for the root. *)
val basename : t -> string option

(** Segments from the root down. *)
val segments : t -> string list

val depth : t -> int
val is_root : t -> bool

(** [is_prefix p q] — is [p] an ancestor of [q] or equal to it? *)
val is_prefix : t -> t -> bool

(** Strict ancestors of [p], nearest (parent) first, ending with the root. *)
val ancestors : t -> t list

(** [append p q] concatenates [q]'s segments under [p]. *)
val append : t -> t -> t

(** {1 Codec} The path as one atom, ["/a/b"]. *)

val print : Sexp.Print.t -> t -> unit
val read : Sexp.Read.t -> t
