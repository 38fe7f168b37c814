(** The hosting-provider workload (§6.2–§6.4's driver) run end-to-end on a
    full-mode TCloud deployment, reporting the operation mix, outcomes and
    per-operation-type latency — the "realistic TCloud deployment" the
    paper mimics with this trace. *)

type op_stats = {
  op_name : string;
  submitted : int;
  committed : int;
  aborted : int;
  latency : Metrics.Cdf.t;
}

type result = {
  duration : float;
  ops : op_stats list;
  deferrals : int;
  violations : int;
  layers_consistent : bool;
      (** every non-quarantined device equals its logical subtree at the
          end of the run *)
  stats : Tropic.Stats.stats;
      (** the shard's counters and per-phase latency recorders, summed
          over every controller instance of the run *)
  membership : string;  (** coordination membership/session counters *)
  trace : Trace.t option;  (** span recorder, when [record_trace] was set *)
}

(** Simulation seed used when [?seed] is not given. *)
val default_seed : int

(** Runs the workload at 1 op/s for 300 s, or 120 s with [quick] (default
    false).  [record_trace] (default false) attaches a span recorder to
    every controller and worker; the result then carries the trace. *)
val run : ?seed:int -> ?quick:bool -> ?record_trace:bool -> unit -> result
val print : result -> unit
