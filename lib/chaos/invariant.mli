(** Invariant checkers for chaos runs.

    Two kinds: a {e tracker} process that polls continuously while the
    simulation runs (for properties that must hold at every instant), and
    a one-shot {e quiescence} check the runner calls once the workload is
    terminal and reconciliation has had time to heal the layers.

    Continuous:
    - [one-leader-per-term]: no two coordination replicas ever lead the
      same term (the raft election safety property).
    - [no-overcommit]: the memory placed on a compute host never exceeds
      its capacity — the paper's headline constraint; devices deliberately
      do not enforce it physically, only TROPIC's logical layer does.
    - [stuck-lock] (only with [~stall_budget]): no transaction stays in
      flight — write locks held — longer than the budget.  The robustness
      layer (retries, per-action deadlines, watchdog escalation) exists
      precisely to bound this; the no-watchdog ablation makes it fire.
    - [bounded-queue] (only with [~queue_budget]): the leader's pending
      (ready + blocked) queue never exceeds the budget.  Admission
      control's watermarks exist precisely to bound this; the no-breaker
      ablation under a request storm makes it fire.  Reported once per
      run.
    - [parked-waiters]: on every shard leader, the transactions parked on
      a lock conflict (no wake pending) equal the lock manager's waiter
      registrations — a parked one without a registration is a lost
      wakeup.  Reported once per shard.

    At quiescence:
    - [transaction-terminal]: every submitted transaction reached
      Committed/Aborted/Failed — nothing lost across fail-overs.
    - [leader-election]: every shard has a leading controller.
    - [exactly-once]: committed spawn/stop/destroy effects appear on the
      devices exactly once — the right VM on the right host in the right
      state, no duplicates, no resurrections, no ghosts.
    - [no-overcommit]: final-state capacity check, same as above.
    - [session-order]: no coordination replica applied a data command
      whose request number skips past its session's last one — each
      session's pipelined commands reached the log in send order, none
      lost ahead of a later one ({!Coord.Store.order_gaps}, the most any
      live replica of a shard counted, summed over shards).
    - [convergence]: no subtree is still quarantined and every device's
      exported state equals its {e owning} shard leader's logical
      subtree.
    - [quiescence-drained]: every shard leader's todo queue, in-flight
      set and lock table are empty.
    - [orphan-keys]: no shard's coordination store holds a progress
      cursor or an executing marker, which only a running replay owns.
    - [store-bounded]: after the final checkpoint, each shard's store
      holds only election and ephemeral keys, the checkpoint, queue
      items, and the records of live and of cross-shard transactions
      (and, in shard 0's store, the 2PC mailboxes and decision
      records). *)

type violation = { invariant : string; at : float; detail : string }

val violation_to_string : violation -> string

(** {1 Continuous tracker} *)

type tracker

(** [start ?period ?stall_budget ?queue_budget ~platform ~computes ()]
    spawns the polling process ([period] defaults to 0.25 s).
    [stall_budget] (seconds a transaction may stay in flight) enables the
    [stuck-lock] check; [queue_budget] (max pending transactions on the
    leader) enables the [bounded-queue] check. *)
val start :
  ?period:float ->
  ?stall_budget:float ->
  ?queue_budget:int ->
  platform:Tropic.Platform.t ->
  computes:(Data.Path.t * Devices.Compute.t) array ->
  unit ->
  tracker

val stop : tracker -> unit
val tracker_violations : tracker -> violation list

(** {1 Trace lifecycle check}

    Runs {!Trace.Check.validate} over the span tree the platform recorded
    and maps each error to a [trace-*] violation (e.g.
    [trace-committed-no-undo], [trace-undo-order]).  Only meaningful at
    quiescence: live transactions legitimately hold open spans. *)
val check_trace : at:float -> Trace.t -> violation list

(** {1 Quiescence check} *)

(** Expected terminal fate of one VM, folded by the runner from its
    committed operations. *)
type vm_fate = {
  vm : string;
  host : int;  (** index into [computes] *)
  present : bool;  (** spawned and not destroyed *)
  running : bool;
}

(** [check_quiescence ~platform ~computes ~devices ~txns ~expected
    ~skip_vm] — [txns] pairs every submitted transaction id with its
    final observed state; [skip_vm] excuses VMs whose fate the harness
    cannot predict (out-of-band removals, write sets of Failed
    transactions). *)
val check_quiescence :
  platform:Tropic.Platform.t ->
  computes:(Data.Path.t * Devices.Compute.t) array ->
  devices:Devices.Device.t list ->
  txns:(int * Tropic.Txn.state option) list ->
  expected:vm_fate list ->
  skip_vm:(string -> bool) ->
  violation list
