(** Structural difference between two trees.

    Reconciliation uses this to compare the logical and physical data
    models, and the goal-state planner ([lib/plan]) compiles the change
    list into transactions: [diff ~old_tree ~new_tree] lists the changes
    that turn [old_tree] into [new_tree]. *)

type change =
  | Added of Path.t * Tree.node       (** subtree present only in [new_tree] *)
  | Removed of Path.t                 (** subtree present only in [old_tree] *)
  | Kind_changed of Path.t * string * string  (** old kind, new kind *)
  | Attr_set of Path.t * string * Value.t option * Value.t
      (** attribute added or changed: old value ([None] = absent), new *)
  | Attr_removed of Path.t * string * Value.t

val change_to_string : change -> string

(** Changes in a {e deterministic, dependency-safe} order; empty iff the
    trees are equal.  The order is a guarantee the goal-state planner
    depends on:

    - Nodes are visited in preorder: a node's own changes always precede
      those of its descendants.
    - Per node, changes appear as: [Kind_changed] first, then attribute
      changes in ascending attribute-name order, then child changes in
      ascending child-name order.
    - [Added] and [Removed] each cover a whole subtree and are emitted
      exactly once, at the subtree's root — two [Added] (or two [Removed])
      changes are never ancestor-related.  Because of the preorder, the
      parent of every [Added] node already exists when the change is
      reached: an add for a parent always precedes adds {e inside} other
      subtrees deeper in the list, and removals of a subtree's interior
      never appear (the subtree root's single [Removed] subsumes them —
      deepest-first removal is vacuously satisfied).

    Consequently folding the list over [old_tree] with {!apply} (see
    {!patch}) reconstructs [new_tree] exactly, in one pass, in list
    order. *)
val diff : old_tree:Tree.t -> new_tree:Tree.t -> change list

(** [patch tree changes] folds {!apply} left-to-right, stopping at the
    first error.  [patch old_tree (diff ~old_tree ~new_tree)] is
    [Ok new_tree] — the regression suite pins this property. *)
val patch : Tree.t -> change list -> (Tree.t, Tree.error) result
