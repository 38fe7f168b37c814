(** Whole-system assembly: a TROPIC deployment inside one simulation.

    Builds the coordination ensemble, bootstraps the initial logical tree
    as checkpoint 0, starts the controller replica group and the workers,
    and gives harness code a client-side API: submit orchestration
    requests, await their outcome, send operator controls, and inject
    controller failures. *)

type mode = Worker.mode =
  | Full                   (** workers drive the simulated devices *)
  | Logical_only of float  (** paper §5; per-txn worker stand-in delay *)

type spec = {
  controllers : int;
  workers : int;
  shards : int;
      (** partitions of the resource tree, each with its own coordination
          ensemble, controller replica group and worker pool; device roots
          are assigned round-robin.  1 (the default) is the pre-sharding
          platform, laid out bit-identically *)
  mode : mode;
  coord_config : Coord.Types.config;
  controller_config : Controller.config;
  controller_session_timeout : float;
      (** failure-detection time for controller fail-over (§6.4) *)
  submit_clients : int;  (** client sessions the harness submits through *)
  persist_clients : int;
      (** ignored: opens no session.  A controller commits each state
          transition as one atomic multi-op coordination command on its
          own session, so it needs no persist-session pool; the field stays
          until the benchmark workloads stop setting it. *)
  worker_retry : Physical.retry_policy;
      (** per-action robustness policy every worker executes under *)
  trace : Trace.t option;
      (** span recorder shared by every controller, worker (including
          supervisor restarts) and coordination ensemble; [None] disables
          tracing ({!create} maps it to {!Trace.off}) *)
}

val default_spec : spec

type t

(** [create spec env ~initial_tree ~devices sim] — asynchronous: bootstrap,
    elections and recovery happen as the simulation runs. *)
val create :
  spec ->
  Dsl.env ->
  initial_tree:Data.Tree.t ->
  devices:Devices.Device.t list ->
  Des.Sim.t ->
  t

val sim : t -> Des.Sim.t
val spec : t -> spec

(** {1 Running}

    A shard is drained when it has a leading controller that tracks no
    unfinished transaction (none queued, blocked, being simulated or
    Started), holds no lock and no lock waiter, and whose coordination
    leader store holds no inputQ or phyQ item. *)

(** What a shard's leader and coordination leader still hold. *)
type backlog = {
  todo : int;         (** pending transactions, ready and blocked *)
  blocked : int;      (** parked in the blocked table *)
  inflight : int;     (** Started, holding their locks *)
  unfinished : int;
      (** tracked by the leader and not yet terminal, plus record writes
          not yet acked *)
  locks : int;        (** lock-table entries *)
  waiters : int;      (** lock waiters indexed *)
  input_items : int;  (** inputQ items not yet accepted *)
  phy_items : int;    (** phyQ items not yet executed *)
}

(** Shard [sid]'s backlog, or [None] while it has no leading controller
    or no coordination leader. *)
val shard_backlog : t -> int -> backlog option

(** Every shard is drained: nothing is left to do but heartbeats. *)
val quiescent : t -> bool

(** [run ?until t body] runs [body] as a process and drives the simulation
    to the first event after which [body] has returned and {!quiescent}
    holds — or to [until] (default 36 000 s) if that never happens.
    Returns [true] iff it stopped at quiescence.  See {!Des.Proc.run}. *)
val run : ?until:float -> t -> (unit -> unit) -> bool

(** {1 Client API (call from inside a process)} *)

(** Enqueue an orchestration request; returns the transaction id. *)
val submit : t -> proc:string -> args:Data.Value.t list -> int

(** Block until the transaction reaches a terminal state. *)
val await : t -> int -> Txn.state

(** [submit] + [await]. *)
val run_txn : t -> proc:string -> args:Data.Value.t list -> Txn.state

(** Submit every request of the batch, then await them all — the requests
    are in flight together, so independent transactions of a plan wave can
    be scheduled concurrently.  Returns [(txn_id, terminal_state)] in
    batch order. *)
val submit_batch :
  t -> (string * Data.Value.t list) list -> (int * Txn.state) list

(** Current state from the persisted record, if any. *)
val txn_state : t -> int -> Txn.state option

(** Operator controls, routed through inputQ like any request. *)
val signal : t -> int -> Proto.signal -> unit

val reload : t -> Data.Path.t -> unit
val repair : t -> Data.Path.t -> unit

(** {1 Introspection and fault injection}

    Controllers and workers live in flat shard-major arrays: shard [s]'s
    replica group is slots [s*n .. s*n + n-1]. *)

val controllers : t -> Controller.t array
val workers : t -> Worker.t array
val shard_count : t -> int

(** Leader of shard 0 (the historical accessor). *)
val leader_controller : t -> Controller.t option

(** Block until shard 0 has a leader; returns it. *)
val await_leader_controller : t -> Controller.t

(** Current leader of shard [sid], and its flat slot index. *)
val shard_leader : t -> int -> Controller.t option

(** Shard [sid]'s counter record, shared by all of that shard's
    controller instances (leader, standbys and restarted ones), so its
    counters and latency recorders cover the whole run across
    fail-overs.  The same record {!Controller.stats} returns for any of
    them. *)
val shard_stats : t -> int -> Controller.stats

(** Always a fresh, empty record: no counters are banked apart from
    {!shard_stats}, so "retired + leader" sums stay exact. *)
val shard_retired_stats : t -> int -> Controller.stats

val shard_leader_index : t -> int -> int option

(** Owning shard of a resource path (pure function of the assignment). *)
val shard_of_path : t -> Data.Path.t -> int

(** Block until shard [sid] has a leader; returns it. *)
val await_shard_leader : t -> int -> Controller.t

(** Logical tree of shard 0's leader.  @raise Failure if none leads. *)
val logical_tree : t -> Data.Tree.t

(** Platform-wide logical tree: every shard leader's owned subtrees
    grafted over shard 0's view.  Blocks until each shard has a leader. *)
val composite_tree : t -> Data.Tree.t

(** Crash controller [i] (process death + session loss). *)
val kill_controller : t -> int -> unit

(** Restart slot [i] after {!kill_controller}: a fresh controller instance
    (new coordination session) under the same name, which re-joins the
    election and recovers. *)
val restart_controller : t -> int -> unit

(** Crash worker [i] (process death + session loss: its ephemeral
    executing marker disappears, any in-flight execution is abandoned). *)
val kill_worker : t -> int -> unit

(** Restart slot [i] after {!kill_worker}: a fresh worker instance (new
    coordination session) under the same name. *)
val restart_worker : t -> int -> unit

(** Flat index of shard 0's leading controller, if any. *)
val leader_index : t -> int option

(** Shard 0's (global) coordination ensemble. *)
val coord : t -> Coord.Ensemble.t

(** Shard [sid]'s coordination ensemble. *)
val coord_ensemble : t -> int -> Coord.Ensemble.t

(** Membership counters (joins, leaves, catch-ups, stale replication
    sessions rejected): one record, written by every shard's ensemble. *)
val membership_stats : t -> Coord.Types.membership_stats

(** Group-commit counters (flushes by trigger, batched commands, deferred
    and unsafe acks, batch-size histogram): one record, written by every
    shard's ensemble. *)
val group_commit_stats : t -> Coord.Types.group_stats

(** Sum of controller-CPU busy time (all controllers; only the leader
    accrues). *)
val controller_cpu_busy : t -> float

(** Summed busy time of each ensemble leader's op station. *)
val coord_io_busy : t -> float
