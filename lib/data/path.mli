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

(** Interned path handles.

    [intern] hash-conses a path into a process-global table and returns a
    small handle with a dense integer identity and a pre-computed ancestor
    chain — built for hot lock-table keys, where structural comparison of
    segment lists dominated.  Handles for equal paths are physically
    equal.  The table only grows; its size is bounded by the number of
    distinct paths interned (the same order as the resource tree). *)
module Id : sig
  type id

  (** Intern a path; O(depth), one hash lookup per segment. *)
  val intern : t -> id

  (** The path this handle stands for (no copy). *)
  val path : id -> t

  (** Dense small-int identity, unique per distinct path. *)
  val uid : id -> int

  (** Strict ancestors, nearest (parent) first, ending with the root;
      cached at interning time, O(1). *)
  val ancestors : id -> id list
end

val to_sexp : t -> Sexp.t
val of_sexp : Sexp.t -> (t, string) result
