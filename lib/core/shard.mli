(** Shard identity and resource-tree partitioning.

    The resource hierarchy is partitioned by {e device root}: each root is
    owned by exactly one shard, and a shard's controller replica group
    serves only transactions whose write set stays inside its owned
    subtrees.  The assignment is computed once from the sorted root list
    (round-robin, so sequentially numbered hosts spread evenly) and shared
    verbatim by every controller and client-side router — ownership is a
    pure function, no directory service involved. *)

type t = {
  sid : int;  (** this shard's id, [0 <= sid < count] *)
  count : int;
  assignment : (Data.Path.t * int) list;  (** device root -> owning shard *)
}

(** The unsharded platform: one shard owning everything ([count = 1]). *)
val singleton : roots:Data.Path.t list -> t

(** [make ~sid ~shards roots] — shard [sid]'s view of the full partition. *)
val make : sid:int -> shards:int -> Data.Path.t list -> t

(** Same partition, seen from another shard. *)
val view : t -> sid:int -> t

val roots_of : t -> int -> Data.Path.t list

(** Owning shard of an arbitrary path — total: paths inside an assigned
    subtree (or on its root-ward spine) map to that subtree's owner,
    anything else falls back to a deterministic string hash, so every
    participant agrees on ownership without coordination. *)
val owner_of : t -> Data.Path.t -> int

val owns : t -> Data.Path.t -> bool
