(** Seed-sweep fault explorer.

    One {e run} builds a fresh TCloud deployment and TROPIC platform
    inside a seeded simulation, drives a deterministic mixed workload
    (spawn / stop / destroy, with a hot host that tempts overcommit),
    installs a nemesis schedule, waits for quiescence (workload terminal,
    schedule exhausted, reconciliation given time to heal — including the
    operator [reload] for unrepairable drift such as out-of-band VM
    removals), and evaluates every invariant.

    A {e sweep} runs seed × schedule combinations and collects violating
    runs as one-line reproducers; re-running a reproducer with [~trace]
    replays the identical fault sequence with full event tracing. *)

(** Which build the harness exercises.  [No_constraints] strips the
    logical-layer constraints (the ablation that must make the sweep
    light up); [No_guard_locks] disables the §3.1.3 constraint-guard
    R-locks only; [No_watchdog] strips the robustness layer — stall
    watchdog, per-action deadlines and transient-error retries — so
    hang/crash schedules leave transactions wedged with their locks
    held; [No_breaker] strips the overload layer — device health
    scoring, circuit breakers and admission control — so a flap-storm
    schedule queues unboundedly behind the flapping host and trips the
    [bounded-queue] invariant; [No_plan_deps] compiles goal-state plans
    with every dependency edge dropped ({!Plan.Planner.compile}
    [~ordered:false]), so the plan-crash schedule's capacity swap
    livelocks and trips the [plan-converged] invariant; [No_2pc] skips
    the durable cross-shard commit decision record, so a coordinator
    crash between prepare and decision presumes abort on transactions
    whose commit already took effect elsewhere — the shard-crash
    schedule's [exactly-once]/[convergence] invariants convict it;
    [No_session_ids] drops the replication-session check on coordination
    append replies, so a replica removed and re-added within one term can
    poison the leader's progress tracking with acks from its previous
    incarnation — the member-churn schedule's [progress-integrity]
    invariant convicts it; [Unsafe_ack] makes the coordination leader
    release client acks at enqueue time instead of after its group-commit
    batch reaches quorum, so a leader crash inside the batch window loses
    acked submissions — the commit-storm schedule's [acked-durable]
    invariant convicts it. *)
type build =
  | Stock
  | No_constraints
  | No_guard_locks
  | No_watchdog
  | No_breaker
  | No_plan_deps
  | No_2pc
  | No_session_ids
  | Unsafe_ack

val build_to_string : build -> string
val build_of_string : string -> (build, string) result

type config = {
  build : build;
  hosts : int;  (** compute hosts in the deployment *)
  txns : int;  (** workload transactions (spawn chains) *)
  horizon : float;  (** hard virtual-time stop *)
  quiesce_grace : float;  (** settle time between reconciliation waves *)
}

val default_config : config

(** Smaller workload for smoke tests and [--quick]. *)
val quick_config : config

type result = {
  schedule : string;
  seed : int;
  rbuild : build;
  committed : int;
  aborted : int;
  failed : int;
  injected : int;  (** nemesis events actually fired *)
  stats : Tropic.Stats.stats list;
      (** one counter record per shard, in shard order, each shared by
          every controller instance of that shard, so it covers the whole
          run across fail-overs *)
  membership : Coord.Types.membership_stats;
      (** coordination membership counters summed over every shard's
          ensemble; [stale_sessions_rejected] is proof the churn window
          was actually exercised *)
  group : Coord.Types.group_stats;
      (** group-commit counters summed over every shard's ensemble;
          [unsafe_acks] is nonzero only on the unsafe-ack build *)
  violations : Invariant.violation list;
      (** includes [trace-*] lifecycle violations from
          {!Invariant.check_trace} when the run quiesced *)
  trace : string list;  (** injection/progress log, oldest first *)
  span_dump : string list;
      (** normalized span-tree dump of the run (only with [~trace:true],
          i.e. when replaying a reproducer); empty otherwise *)
  duration : float;  (** virtual seconds to quiescence *)
}

(** One-line reproducer: the exact CLI invocation that replays this run. *)
val reproducer : result -> string

val run_one : ?trace:bool -> config -> schedule:Schedule.t -> seed:int -> result

type sweep = {
  runs : result list;
  violating : result list;  (** runs with at least one violation *)
}

(** [sweep ?progress config ~schedules ~seeds] assigns seed [i] to
    schedule [i mod length schedules] (round-robin), runs each pair, and
    calls [progress] after every run. *)
val sweep :
  ?progress:(result -> unit) ->
  config ->
  schedules:Schedule.t list ->
  seeds:int list ->
  sweep
