(** The TROPIC controller: one shard's lead loop.

    Each instance joins its shard's election.  The winner recovers
    ({!Recovery}), then reads inputQ a burst at a time and routes each
    item to the protocol that owns its state:
    - a request is admitted (shed past the {!Health.admission}
      watermarks) and scheduled here ({!Sched}): simulated against the
      logical tree under constraint checks, gated by the {!Health}
      breakers, locked and handed to the phyQ; a cross-shard one runs
      {!Twopc};
    - a result finalizes its transaction, rolling the logical layer back
      with undo actions on an abort, and {!Health} scores it;
    - a signal ends a transaction or flags it; a reload or repair goes to
      {!Recon}.
    Between bursts it takes the checkpoint its {!Recovery.ledger} is due.
    {!Persist} writes every state transition to the coordination service.

    The shard's counters are a {!Stats} record, re-exported here.  The
    controller hands it to its {!Sched}, {!Health} and {!Twopc}, and each
    counts its own events; the controller counts admission, outcomes,
    lock parks, signals, watchdog escalations and worker reports.

    Logical work is charged to a CPU {!Des.Station} (simulation is
    single-threaded, as in the paper's Python prototype); its busy time is
    what Figure 4 plots. *)

type config = {
  repair_rules : Recon.rule list;
  constraint_guard_locks : bool;
      (** the §3.1.3 R-lock-on-constrained-ancestor rule (ablation knob) *)
  repair_interval : float option;
      (** §4: how often the leader compares the two layers and repairs
          drift (also re-attempting quarantined subtrees); [None] leaves
          reconciliation to the operator *)
  watchdog : Watchdog.config;
      (** leader-side stall watchdog (TERM → KILL escalation on overdue
          in-flight transactions); {!Watchdog.disabled} by default *)
  health : Health.config;
      (** per-device EWMA health scoring and circuit breakers; tripped
          subtrees defer writers at admission, before lock acquisition.
          {!Health.disabled} by default *)
  admission : Health.admission;
      (** pending-queue watermarks: at [queue_high] new arrivals are shed
          with the fast [Txn.overload_reason] abort until the queue drains
          to [queue_low]; {!Health.no_admission} by default *)
  twopc_prepare_timeout : float;
      (** presumed-abort deadline: a coordinator stuck gathering votes (or
          a prepared participant stuck awaiting the decision) gives up
          after this many sim seconds *)
  twopc_decision_record : bool;
      (** ablation knob: when false, the durable 2PC decision record is
          never written or consulted — crashes mid-commit lose the
          decision and shards diverge *)
}

val default_config : config

(** The shard's counter record ({!Stats}): [stats], [fresh_stats],
    [absorb_stats] and [sum]. *)
include module type of struct include Stats end

type t

(** [trace] records a span tree per transaction (admission, scheduling,
    lock waits, simulation, watchdog/health escalations); pass the same
    recorder to the workers for replay/undo spans, or {!Trace.off}.

    [shard] scopes this controller to one shard of the resource tree
    (default {!Shard.singleton}: the whole tree, pre-sharding layout);
    [client] must then connect to that shard's coordination ensemble, and
    [gclient] to the global (shard 0) ensemble carrying the 2PC mailboxes
    and decision records (defaults to [client] — correct for shard 0 and
    for single-shard platforms).

    [repair_deadline] (normally the workers' per-action deadline) goes to
    {!Recon.create}, [on_prune] to {!Recovery.ledger}.

    [stats] is the shard's counter record, the same for every controller
    and worker instance of the shard, so it survives fail-over. *)
val create :
  trace:Trace.t ->
  ?shard:Shard.t ->
  ?gclient:Coord.Client.t ->
  ?repair_deadline:float ->
  on_prune:((int * Txn.state) list -> unit) ->
  name:string ->
  client:Coord.Client.t ->
  env:Dsl.env ->
  config:config ->
  devices:Physical.device_lookup ->
  device_roots:Data.Path.t list ->
  sim:Des.Sim.t ->
  stats:stats ->
  unit ->
  t

(** Spawn the controller process (election, recovery, main loop). *)
val start : t -> unit

(** Have the leader checkpoint at its next pass of the main loop (within
    a second when idle), whatever the number of records to fold. *)
val request_checkpoint : t -> unit

(** Kill the controller process and close its coordination session — from
    the rest of the system's point of view, a crash. *)
val crash : t -> unit

val name : t -> string
val is_leader : t -> bool

(** Current logical tree (meaningful on the leader). *)
val tree : t -> Data.Tree.t

(** The shard's counter record, shared with every other controller
    instance of the same shard. *)
val stats : t -> stats

(** Scheduled-but-not-started transactions: ready + blocked (the
    refactored todoQ length). *)
val todo_length : t -> int

(** Transactions parked in the blocked table — 0 at quiescence. *)
val blocked_length : t -> int

(** Started transactions, holding their locks — 0 at quiescence. *)
val inflight : t -> int

(** Transactions this instance tracks that are not yet terminal
    (including one being simulated between the todo queue and Started),
    plus record writes not yet durable — 0 at quiescence. *)
val unfinished : t -> int

(** Every transaction this instance holds, ascending by id, with its
    state.  Only live ones: a transaction leaves as it turns terminal, so
    the leader holds what {!Recovery.rebuild} gives a new leader. *)
val held : t -> (int * Txn.state) list

(** Ids of the in-flight (Started) transactions, ascending. *)
val started_txns : t -> int list

(** Number of (path, txn) entries in the lock table — 0 at quiescence. *)
val lock_count : t -> int

(** Parked waiter registrations in the lock manager — 0 at quiescence. *)
val waiter_count : t -> int

(** Transactions parked on a lock conflict with no wake pending.  Equal to
    {!waiter_count} at every instant: each has exactly one registration,
    which the release that wakes it removes.  Breaker and 2PC parks have
    none, so {!blocked_length} can exceed both. *)
val lock_parked : t -> int

(** Quarantined (inconsistent) subtree roots. *)
val quarantined : t -> Data.Path.t list

(** The redelivery watermark: the highest request id processed. *)
val max_request_seq : t -> int

(** Cumulative CPU busy time (Fig. 4's y-axis numerator). *)
val cpu_busy_time : t -> float
