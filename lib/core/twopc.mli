(** Cross-shard two-phase commit (presumed abort).

    The coordinator is the lowest-numbered shard a request touches.  It
    W-locks its own roots and asks the other touched shards to prepare:
    each runs a shadow transaction that W-locks its roots, persists the
    vote and replies with snapshots of them.  The coordinator grafts the
    snapshots, simulates the full procedure, persists Started and creates
    the decision record — the commit point.  Participants then get their
    log slice ([Decide]) and, once the coordinator's transaction ends, its
    verdict ([Finish]); on a failed verdict they quarantine their slice too.

    All 2PC state lives on the global (shard 0) ensemble: a mailbox per
    shard plus per-transaction decision and finish records.  A missing
    decision record means abort, and a timed-out party closes the race by
    creating it as Abort — the first-writer-wins create arbitrates.

    The controller keeps the shard's tree, locks and scheduler; the
    handlers ask it for local work through one {!local} callback. *)

(** A participant's shadow transaction: it holds the write locks and
    carries the decided slice, but is never offered to the physical layer
    (the coordinator's worker replays the full log). *)
val is_participant : Txn.t -> bool

(** {1 Wire format} *)

(** Locked-subtree snapshot a participant votes with. *)
type snap = Data.Path.t * Data.Tree.node

(** How a cross-shard transaction ended physically. *)
type verdict = Committed | Rolled_back | Failed

type msg =
  | Prepare of { gid : int; coord : int; roots : Data.Path.t list }
      (** coordinator -> participant: W-lock [roots], snapshot them *)
  | Prepared of {
      gid : int;
      shard : int;
      ok : bool;
      reason : string;  (** refusal reason when [ok = false] *)
      snaps : snap list;
    }
  | Decide of { gid : int; commit : bool; log : Xlog.t }
      (** coordinator -> participant; [log] is the participant's slice *)
  | Finish of { gid : int; verdict : verdict }

val msg_to_string : msg -> string
val msg_of_string : string -> (msg, string) result

(** Decision-record payload: on commit, the per-shard log slices ride
    along so a participant recovering from a crash can apply its share
    even after the coordinator finished and pruned everything else. *)
type decision = Commit of (int * Xlog.t) list | Abort

val decision_to_string : decision -> string
val decision_of_string : string -> (decision, string) result

(** {1 Protocol state} *)

type t

(** [record = false] is the ablation that never writes or reads the
    decision record.  [barrier] (default none) runs before every write on
    [gclient]: the controller passes {!Persist.barrier} when [gclient] is
    its own session.  [trace] (default {!Trace.off}) records the
    protocol's [2pc] instants.  [stats] is the shard's record, whose
    [twopc_*] counters the protocol counts where it prepares, decides,
    votes and aborts. *)
val create :
  ?trace:Trace.t ->
  ?barrier:(unit -> unit) ->
  stats:Stats.stats ->
  name:string ->
  gclient:Coord.Client.t ->
  shard:Shard.t ->
  timeout:float ->
  record:bool ->
  Des.Sim.t ->
  t

(** Atomically create the decision record of [gid] and return the decision
    in force: the proposal if the create won, the existing record's
    otherwise.  With the record ablated every proposal wins, and nothing is
    stored. *)
val propose : t -> int -> decision -> decision

(** The stored decision of [gid], if any (always [None] when ablated). *)
val read_decision : t -> int -> decision option

(** The other shards a cross-shard request touches; [[]] when it is
    single-shard. *)
val participants_of : t -> Txn.t -> int list

(** A coordinator-side cross-shard transaction (not a shadow). *)
val is_cross : Shard.t -> Txn.t -> bool

val snapshots : Data.Tree.t -> Data.Path.t list -> snap list

(** Graft vote snapshots into a tree (unparseable or misplaced ones are
    skipped). *)
val graft : Data.Tree.t -> snap list -> Data.Tree.t

(** {1 Work handed back to the controller} *)

type local =
  | Admit of Txn.t  (** a new shadow transaction: track, persist, submit *)
  | Revote of Txn.t
      (** a redelivered Prepare: send {!revote} with fresh snapshots *)
  | Apply of Txn.t * Xlog.t
      (** apply the decided slice, persist, then call {!applied} *)
  | Decide_votes of Txn.t * snap list
      (** every vote is in: simulate and reach the commit point *)
  | Offer of int  (** offer a recovered decided coordinator to the phyQ *)
  | End of {
      count : bool;
          (** the outcome is client-visible (a coordinator's), so it
              counts in the shard's terminal counters; a participant
              shadow's is the coordinator's to count *)
      txn : Txn.t;
      state : Txn.state;
      undo : bool;  (** roll the logical effects back first *)
      quarantine : bool;  (** the layers diverge under the write set *)
    }

(** {1 Coordinator} *)

(** Open the prepare round of [txn] (its own roots are already locked). *)
val prepare : t -> Txn.t -> participants:int list -> unit

(** Abort [txn] before its prepare round: nothing was sent or recorded,
    so nothing is; [txn] ends like any coordinator abort. *)
val refuse : t -> local:(local -> unit) -> Txn.t -> string -> unit

(** Abort before the commit point: drop the pending entry, record and send
    Abort, and end [txn]. *)
val abort : t -> local:(local -> unit) -> Txn.t -> string -> unit

(** The commit point of a fully voted [txn] whose [log] was simulated and
    persisted as Started.  [Some slices] when Commit is in force (send them
    with {!announce} once the full log is offered); [None] when a
    participant's presumed abort won the race and [txn] was ended. *)
val commit_point :
  t -> local:(local -> unit) -> Txn.t -> Xlog.t -> (int * Xlog.t) list option

val announce : t -> int -> (int * Xlog.t) list -> unit

(** The prepared shards of [gid] plus this one: the shards its write set
    may touch. *)
val permitted : t -> int -> int -> bool

(** [gid] is gathering votes. *)
val preparing : t -> int -> bool

(** [gid] passed its commit point and awaits its physical verdict. *)
val decided : t -> int -> bool

(** End a decided [gid] in terminal [state]: write the finish marker and
    send the verdict to every participant. *)
val finish : t -> int -> Txn.state -> unit

(** {1 Participant} *)

(** The coordinator shard of a tracked shadow transaction. *)
val coordinator : t -> int -> int option

(** Cast the first vote: [Ok snaps] starts the decision deadline, [Error
    reason] refuses and forgets [gid]. *)
val vote : t -> int -> (snap list, string) result -> unit

val revote : t -> Txn.t -> snap list -> unit

(** The slice of [gid] was applied; the Finish deadline starts. *)
val applied : t -> int -> unit

(** A terminal transaction leaves the controller's table (or, read back
    by recovery, never enters it).  A shadow leaves a tombstone with its
    terminal state, so a redelivered Prepare gets its No vote again
    instead of admitting a second shadow; other transactions leave
    nothing. *)
val retire : t -> Txn.t -> unit

(** {1 Driving} *)

(** Drain this shard's mailbox (process-then-delete), resolve what
    recovery left in doubt, and run the deadline scan.  [txns] is the
    controller's table of live transactions.  True when the scheduler
    should run afterwards. *)
val drain :
  t -> txns:(int, Txn.t) Hashtbl.t -> local:(local -> unit) -> bool

(** {1 Recovery} *)

(** A shadow record, [started] when it had voted. *)
val recover_participant : t -> Txn.t -> started:bool -> unit

(** A Started coordinator record, resolved against the decision record
    on the first {!drain}; [offer] when it has no phyQ item. *)
val recover_coordinator : t -> Txn.t -> offer:bool -> unit

(** A terminal coordinator record: its verdict is re-sent. *)
val recover_terminal : t -> Txn.t -> unit
