(** Rolling-upgrade convergence walkthrough: the goal-state frontend
    ({!Plan}) driving a live platform through two declarative goals —
    drain host 0 (migrating its VMs out, starting the whole fleet, and
    wiring every VM into a tenant VLAN), then restore the original
    placement.  Each phase is one {!Plan.Executor.converge} call; the
    experiment is the [tropic_exp converge] subcommand.

    With [goal], runs a single phase converging on the given model
    instead of the built-in rolling upgrade (same deployment: 4 xen
    hosts, 8 GB each, 2 stopped 1 GB VMs pre-installed per host,
    2 storage hosts, 1 switch). *)

val default_seed : int

type result = {
  phases : (string * Plan.Executor.report) list;  (** in execution order *)
  stats : Tropic.Stats.stats;  (** the shard's controller counters *)
  todo : int;  (** scheduled-but-not-started transactions at the end *)
  trace : Trace.t option;
}

(** Every phase reached [Converged]. *)
val converged : result -> bool

(** [quick] swaps full physical replay for logical-only timing. *)
val run :
  ?seed:int ->
  ?quick:bool ->
  ?record_trace:bool ->
  ?goal:Plan.Model.t ->
  unit ->
  result

val print : result -> unit
