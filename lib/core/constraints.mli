(** Global integrity constraints — the "safety" in TROPIC's consistency.

    A constraint attaches to an entity kind (e.g. "every [vmHost] node must
    have enough memory for its VMs") and is evaluated on each node of that
    kind lying on the path from the root to a touched object.  The logical
    layer runs affected constraints after every simulated action and aborts
    the transaction on the first violation — before any physical resource
    is touched.

    Constraint placement also drives a locking rule (§3.1.3): a transaction
    writing an object takes an R lock on the object's highest constrained
    ancestor, making that subtree read-only to concurrent transactions so
    no concurrent write can invalidate the constraint check. *)

type violation = {
  constraint_name : string;
  at : Data.Path.t;       (** node the constraint was evaluated at *)
  message : string;
}

val pp_violation : Format.formatter -> violation -> unit

type t = {
  name : string;
  kind : string;  (** entity kind whose nodes this constraint guards *)
  check :
    Data.Tree.t -> Data.Path.t -> Data.Tree.node -> (unit, string) result;
      (** [check tree path node] where [node] has kind {!field-kind} *)
}

type registry

val create : unit -> registry
val register : registry -> t -> unit

(** Does any constraint attach to this kind? *)
val constrained_kind : registry -> string -> bool

(** Evaluate every constraint attached to the kind of each ancestor-or-self
    node of [path], and of every node inside the subtree rooted at [path]
    (missing nodes are skipped: a removal cannot violate kind-local
    constraints).  Outermost violations first. *)
val check_path :
  registry -> Data.Tree.t -> Data.Path.t -> violation list

(** Outermost ancestor-or-self of [path] whose node kind carries a
    constraint — the node the R-lock rule applies to. *)
val highest_constrained_ancestor :
  registry -> Data.Tree.t -> Data.Path.t -> Data.Path.t option
