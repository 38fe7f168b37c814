(** One replica of the coordination service.

    Replicas elect a leader and replicate a command log with a Raft-style
    protocol (randomized election timeouts, term-checked append entries,
    quorum commit, new-leader no-op).  The leader additionally owns the
    client-facing duties: serving queries, tracking sessions and expiring
    their ephemerals, firing watches, and charging replicated commands to
    a FIFO service station — the modeled ZooKeeper I/O cost that bounds
    transaction throughput in the paper's evaluation.  With
    [config.group_commit] on (the default), client commands coalesce into
    a batch that pays one amortized station round per flush and rides one
    replication round: the leader seals whatever parked while the station
    was busy, up to [Types.batch_limit] commands; acks are released
    only when the batch reaches quorum, unless the [unsafe_ack] durability
    ablation answers at enqueue.

    Membership is dynamic: [Add_replica]/[Remove_replica] commands flow
    through the same log as data commands and take effect on {e append}
    (single-server changes, Raft §4).  Quorum and vote counting always use
    the effective configuration; replication progress is tracked per node
    id, not per slot.  Every append/snapshot carries a replication session
    id (leader vote × membership log id); replies echoing a stale session
    are dropped, so a node removed and re-added within one term cannot
    corrupt the fresh incarnation's progress tracking.

    Every replica folds each apply round into its snapshot, the store's
    immutable image ({!Store.freeze}), so its log holds only the entries
    it has not applied; a follower whose gap the leader has already
    folded away catches up by [Install_snapshot].

    Lifecycle is driven by {!Ensemble}: [create] then [start]; a crash is
    [stop] (plus {!Des.Net.crash}); a restart is [reset_volatile] then
    [start] again — term, vote, log and snapshot survive, mimicking stable
    storage. *)

type t

(** [create ~net ~id ~members ~config ()] — [members] is the canonical
    boot configuration (every instance of the ensemble must pass the same
    list; see {!Store.create}).  [~learner:true] creates a non-voting
    instance that will not campaign until it has seen evidence of its own
    membership — an [Add_replica] entry for itself, or a snapshot whose
    configuration lists it.  [?stats] shares membership counters across
    the instances an ensemble creates over its lifetime; [?gstats] does
    the same for the group-commit counters. *)
val create :
  ?learner:bool ->
  ?stats:Types.membership_stats ->
  ?gstats:Types.group_stats ->
  net:Types.msg Des.Net.t ->
  id:int ->
  members:int list ->
  config:Types.config ->
  unit ->
  t

(** Spawn the replica's processes (main loop; leaders add a replication
    pump and a session checker). *)
val start : t -> unit

(** Kill all processes; state is left in place (simulates stable storage). *)
val stop : t -> unit

(** Drop volatile state (role, commit index, sessions, watches) and
    rebuild the applied store from the snapshot; keep term, vote, log and
    snapshot. Call between [stop] and [start]. *)
val reset_volatile : t -> unit

(** {1 Introspection (tests and harnesses)} *)

val is_leader : t -> bool
val term : t -> int

(** Effective membership: boot/snapshot base plus every configuration
    entry in the log, committed or not. *)
val members : t -> int list

(** Whether this replica is in its own effective configuration. *)
val is_member : t -> bool

(** Absolute index of the last log entry. *)
val last_log_index : t -> int

(** Leader-side replication progress as [(peer, match_index)] pairs,
    sorted by peer id; empty on non-leaders.  Used by the chaos
    progress-integrity invariant: a leader must never believe a peer has
    replicated further than that peer's actual log. *)
val progress_snapshot : t -> (int * int) list

(** Absolute index the log starts after: the replica's last applied
    index, which its snapshot covers.  The replica folds every apply
    round into the snapshot, so its log holds only the entries it has
    not applied, and at quiescence {!last_log_index} equals [log_base]. *)
val log_base : t -> int

(** The replica's applied state machine — read-only use only. *)
val store : t -> Store.t

(** Cumulative busy time of the leader-side op service station. *)
val station_busy_time : t -> float
