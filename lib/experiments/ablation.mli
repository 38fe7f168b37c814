(** Ablations of TROPIC's design choices (DESIGN.md §5).

    2. {b Logical-first safety}: constraint checking in the logical layer
       against a build with no constraints, where overcommit reaches — and
       is silently accepted by — the devices (they cannot check aggregate
       rules), demonstrating why safety must live above the device layer.
    3. {b Checkpointing}: recovery cost after a controller crash that
       follows 400 transactions.  Checkpoints are always on, so the
       full-replay arm is gone; EXPERIMENTS.md keeps its last number. *)

type safety_result = {
  with_constraints_overcommitted_hosts : int;  (** must be 0 *)
  with_constraints_device_ops : int;           (** ops wasted on doomed txns *)
  without_constraints_overcommitted_hosts : int;
  without_constraints_device_ops : int;
}

type checkpoint_result = {
  txns_before_crash : int;
  recovery_s : float;  (** crash to the first commit of a probe txn *)
}

type result = {
  safety : safety_result;
  checkpointing : checkpoint_result;
}

(** Base seed used when [?seed] is not given; the sub-experiments run on
    [seed+1] and [seed+2]. *)
val default_seed : int

val run : ?seed:int -> unit -> result
val print : result -> unit
