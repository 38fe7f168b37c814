(** Logical-layer execution (paper §3.1.2): simulate a stored procedure
    against the logical tree, producing the execution log, the transformed
    tree, and the inferred lock set — all without touching any device.

    Lock inference: every read takes R on the object, every action takes W,
    and every write additionally takes R on the object's highest
    constrained ancestor (so concurrent transactions cannot invalidate the
    constraint checks this simulation performed). *)

type success = {
  new_tree : Data.Tree.t;
  log : Xlog.t;
  locks : (Data.Path.t * Mglock.mode) list;
      (** one entry per path, at the {!Mglock.join} of its modes, in path
          order *)
  actions : int;  (** number of actions simulated (CPU-model input) *)
}

(** [simulate env ~tree ~proc ~args] — [Error reason] on a constraint
    violation, a failed action precondition or an explicit abort; the input
    tree is unaffected either way (it is persistent).  [guard_locks]
    (default true) controls the constraint-ancestor R-lock rule — exposed
    only so the benchmark harness can ablate it. *)
val simulate :
  ?guard_locks:bool ->
  Dsl.env ->
  tree:Data.Tree.t ->
  proc:string ->
  args:Data.Value.t list ->
  (success, string) result

(** Roll the logical tree back by applying the log's undo actions in
    reverse chronological order.  [Error (index, reason)] identifies the
    first record whose undo could not be applied (irreversible action or
    inapplicable undo) — the cross-layer inconsistency case. *)
val rollback :
  Dsl.env -> tree:Data.Tree.t -> log:Xlog.t ->
  (Data.Tree.t, int * string) result
