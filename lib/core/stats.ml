(* A shard's counter record.

   Each counter has exactly one writer, the module that sees the event it
   counts (DESIGN.md §14 has the table): [Controller] for admission,
   terminal outcomes, lock parks, signals, the watchdog's escalations, the
   worker reports it folds in and the four latency recorders; [Sched] for
   (spurious) wakeups; [Health] for the breaker counters; [Twopc] for the
   cross-shard counters; [Worker] for lost phyQ takes.

   Every controller and worker instance of one shard (leader, standbys
   and restarted ones) is given the same record, so counters and latency
   recorders survive fail-over.  [Controller] re-exports this module, so
   [Controller.stats] is this record.  Like [Coord.Types], the module is
   its own interface. *)

type stats = {
  mutable accepted : int;
  mutable committed : int;
  mutable aborted : int;
  mutable failed : int;
  mutable deferrals : int;  (** lock-conflict deferments *)
  mutable violations : int;  (** constraint-violation aborts *)
  mutable wakeups : int;
      (** blocked txns re-readied because a released lock unparked them *)
  mutable spurious_wakeups : int;
      (** wakeups whose re-attempt conflicted again (re-parked) *)
  mutable terms : int;  (** TERM signals handled (operator + watchdog) *)
  mutable kills : int;  (** KILL signals handled (operator + watchdog) *)
  mutable auto_terms : int;  (** TERMs issued by the watchdog *)
  mutable auto_kills : int;  (** KILLs issued by the watchdog *)
  mutable exec_retries : int;
      (** physical-layer retry attempts, summed over worker reports *)
  mutable transient_failures : int;
      (** transient device errors observed by workers *)
  mutable timeouts : int;  (** per-action deadline expiries *)
  mutable sheds : int;
      (** arrivals aborted by admission control ([Txn.overload_reason]) *)
  mutable breaker_deferrals : int;
      (** admission attempts parked because a written subtree's breaker
          was open *)
  mutable breaker_trips : int;  (** → Tripped transitions *)
  mutable breaker_probes : int;  (** canary transactions dispatched *)
  mutable breaker_closes : int;  (** canary successes re-closing a breaker *)
  mutable twopc_started : int;  (** cross-shard coordinations begun here *)
  mutable twopc_committed : int;  (** decision records created as Commit *)
  mutable twopc_aborted : int;  (** cross-shard coordinations aborted *)
  mutable twopc_prepares : int;  (** participant votes cast (ok = true) *)
  mutable take_conflicts : int;  (** worker phyQ takes that lost the race *)
  (* Per-phase latency recorders (sim seconds).  Fed from direct
     measurements — simulate and lock-wait controller-side, replay and
     undo from the worker's exec stats — so they work with no trace
     attached. *)
  simulate_lat : Metrics.Cdf.t;
      (** per-attempt logical simulation + CPU-model time *)
  lock_wait_lat : Metrics.Cdf.t;
      (** park-to-reattempt time of lock-conflict deferments *)
  replay_lat : Metrics.Cdf.t;  (** worker-reported physical replay time *)
  undo_lat : Metrics.Cdf.t;
      (** worker-reported rollback time of aborted replays *)
}

(** Zeroed counters with empty latency recorders: a shard's record, or
    an accumulator for {!absorb_stats}. *)
let fresh_stats () =
  {
    accepted = 0;
    committed = 0;
    aborted = 0;
    failed = 0;
    deferrals = 0;
    violations = 0;
    wakeups = 0;
    spurious_wakeups = 0;
    terms = 0;
    kills = 0;
    auto_terms = 0;
    auto_kills = 0;
    exec_retries = 0;
    transient_failures = 0;
    timeouts = 0;
    sheds = 0;
    breaker_deferrals = 0;
    breaker_trips = 0;
    breaker_probes = 0;
    breaker_closes = 0;
    twopc_started = 0;
    twopc_committed = 0;
    twopc_aborted = 0;
    twopc_prepares = 0;
    take_conflicts = 0;
    simulate_lat = Metrics.Cdf.create ();
    lock_wait_lat = Metrics.Cdf.create ();
    replay_lat = Metrics.Cdf.create ();
    undo_lat = Metrics.Cdf.create ();
  }

(** [absorb_stats ~into src] adds [src]'s integer counters into [into].
    Latency recorders are per shard and are not summed across shards. *)
let absorb_stats ~(into : stats) (src : stats) =
  into.accepted <- into.accepted + src.accepted;
  into.committed <- into.committed + src.committed;
  into.aborted <- into.aborted + src.aborted;
  into.failed <- into.failed + src.failed;
  into.deferrals <- into.deferrals + src.deferrals;
  into.violations <- into.violations + src.violations;
  into.wakeups <- into.wakeups + src.wakeups;
  into.spurious_wakeups <- into.spurious_wakeups + src.spurious_wakeups;
  into.terms <- into.terms + src.terms;
  into.kills <- into.kills + src.kills;
  into.auto_terms <- into.auto_terms + src.auto_terms;
  into.auto_kills <- into.auto_kills + src.auto_kills;
  into.exec_retries <- into.exec_retries + src.exec_retries;
  into.transient_failures <- into.transient_failures + src.transient_failures;
  into.timeouts <- into.timeouts + src.timeouts;
  into.sheds <- into.sheds + src.sheds;
  into.breaker_deferrals <- into.breaker_deferrals + src.breaker_deferrals;
  into.breaker_trips <- into.breaker_trips + src.breaker_trips;
  into.breaker_probes <- into.breaker_probes + src.breaker_probes;
  into.breaker_closes <- into.breaker_closes + src.breaker_closes;
  into.twopc_started <- into.twopc_started + src.twopc_started;
  into.twopc_committed <- into.twopc_committed + src.twopc_committed;
  into.twopc_aborted <- into.twopc_aborted + src.twopc_aborted;
  into.twopc_prepares <- into.twopc_prepares + src.twopc_prepares;
  into.take_conflicts <- into.take_conflicts + src.take_conflicts

(** A fresh record holding the integer counters of [records] summed: the
    whole platform's counters from its shards'. *)
let sum records =
  let into = fresh_stats () in
  List.iter (absorb_stats ~into) records;
  into
