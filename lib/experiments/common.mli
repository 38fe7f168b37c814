(** Shared plumbing for experiment harnesses. *)

(** [run_scenario platform body] runs [body] with {!Tropic.Platform.run}
    and fails with the first recorded process crash, if any.
    @raise Failure if a process crashed or the run never quiesced. *)
val run_scenario : Tropic.Platform.t -> (unit -> unit) -> unit

(** End-of-run cross-layer check on shard 0's leader: every device of
    [inv] either matches its logical subtree or is quarantined awaiting
    reconciliation.  [false] when no controller leads. *)
val layers_consistent : Tropic.Platform.t -> Tcloud.Setup.t -> bool

(** Wall-clock seconds spent evaluating [f] (monotonic-ish, via
    [Sys.time]'s processor time — the experiments are CPU-bound). *)
val time_it : (unit -> 'a) -> 'a * float

(** Print a section header to stdout. *)
val section : string -> unit

(** One-line per-phase latency breakdown of a shard ("p50/p99" per
    phase, [n/a] for phases no transaction crossed). *)
val phase_summary : Tropic.Stats.stats -> string

(** One-line human summary of a shard's scheduler counters: deferrals
    per committed txn + wakeup counters. *)
val sched_summary : Tropic.Stats.stats -> string

(** ["signals T TERM / K KILL (watchdog a/b)"] of one record (a shard's,
    or a {!Tropic.Stats.sum}). *)
val signals_summary : Tropic.Stats.stats -> string

(** One-line human summary of a shard's retry/timeout/signal, shed and
    breaker counters. *)
val robust_summary : Tropic.Stats.stats -> string

(** One-line summary of the coordination-membership counters summed over
    every shard's ensemble (joins, leaves, catch-ups, stale replication
    sessions rejected).  All zeroes on runs with no membership churn. *)
val membership_summary : Tropic.Platform.t -> string

(** Write [tracer]'s Chrome trace-event JSON to [file] and return the
    lifecycle-invariant violations {!Trace.Check.validate} found (ideally
    none). *)
val dump_trace : Trace.t -> file:string -> Trace.Check.error list
