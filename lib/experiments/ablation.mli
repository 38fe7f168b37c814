(** Ablations of TROPIC's design choices (DESIGN.md §5).

    1. {b Scheduling}: the paper's strict FIFO todoQ (a deferred head
       blocks everything) against the "aggressive" policy it sketches as
       future work (try every queued transaction once per round).
    2. {b Logical-first safety}: constraint checking in the logical layer
       against a build with no constraints, where overcommit reaches — and
       is silently accepted by — the devices (they cannot check aggregate
       rules), demonstrating why safety must live above the device layer.
    3. {b Quiescent checkpointing}: recovery cost after a controller crash
       with and without checkpoints (full log replay). *)

type scheduling_result = {
  fifo_makespan : float;
  aggressive_makespan : float;
  fifo_mean_latency : float;
  aggressive_mean_latency : float;
  fifo_stats : Tropic.Controller.stats;  (** the FIFO run's shard counters *)
  aggressive_stats : Tropic.Controller.stats;
}

type safety_result = {
  with_constraints_overcommitted_hosts : int;  (** must be 0 *)
  with_constraints_device_ops : int;           (** ops wasted on doomed txns *)
  without_constraints_overcommitted_hosts : int;
  without_constraints_device_ops : int;
}

type checkpoint_result = {
  txns_before_crash : int;
  recovery_with_checkpoint : float;
  recovery_without_checkpoint : float;
}

type result = {
  scheduling : scheduling_result;
  safety : safety_result;
  checkpointing : checkpoint_result;
}

(** Base seed used when [?seed] is not given; the three sub-experiments
    run on [seed], [seed+1] and [seed+2]. *)
val default_seed : int

val run : ?seed:int -> unit -> result
val print : result -> unit
