(** Idempotent fail-over recovery (paper §2.3) and the checkpoint it
    starts from.  A new leader loads the last checkpoint, undoes the txns
    it included that have rolled back since, replays the Started and
    Committed records beyond it in [start_seq] order, then rebuilds its
    lock table, scheduler and 2PC tables from the records, re-offering
    what the phyQ and result scans show was lost.  Signals need no scan: a
    KILL is the terminal record, a TERM the record's [termed] flag.

    {b The checkpoint} (DESIGN.md §17) is the base (the full tree the
    bootstrap writes), one overlay per device root changed since, and a
    meta value.  The leader's {!ledger} folds in each terminal
    single-shard record; after 64 of them, or on request, the leader
    writes the overlays of the roots whose subtree is not physically the
    last checkpoint's (a change outside every root writes a new base and
    deletes the overlays) and the meta, and deletes the folded records in
    the same {!Persist.append} window.  Its tree includes the effects of
    every txn with [start_seq <= seq] that was Started or Committed when
    it was taken: the [started] ones, and the committed ones whose
    records it pruned.  Cross-shard records are never folded: a
    participant's record rebuilds its {!Twopc} tombstone on a new leader,
    and a coordinator's makes a new leader resend its verdict. *)

type checkpoint = {
  seq : int;  (** the last start_seq whose simulated effects [tree] has *)
  tree : Data.Tree.t;  (** base with the overlays applied *)
  max_request_seq : int;  (** the leader's redelivery watermark *)
  quarantine : Data.Path.t list;  (** the leader's quarantine set *)
  started : int list;  (** the Started txns, ascending *)
}

(** The checkpoint in the store.  Waits for the bootstrap's base; with no
    meta yet it is the base at its own seq. *)
val load_checkpoint : Coord.Client.t -> ns:string -> checkpoint

(** [save_checkpoint ~seq tree client ~ns] writes [tree] as the base as of
    [seq]; false if the write failed.  [tree] is serialized once [~seq]
    and [tree] are applied, so a partial application can write the same
    base to several shards. *)
val save_checkpoint :
  seq:int -> Data.Tree.t -> Coord.Client.t -> ns:string -> bool

(** A leader's checkpoint state: the records the next checkpoint prunes,
    and the tree of the last one.  The overlays are those of [shard]'s
    device roots; [on_prune] gets the ids and final states of the records
    a checkpoint prunes, just before it is sent. *)
type ledger

val ledger :
  name:string ->
  ns:string ->
  shard:Shard.t ->
  persist:Persist.t ->
  on_prune:((int * Txn.state) list -> unit) ->
  ledger

(** Fold a terminal transaction into the next checkpoint, unless it is
    cross-shard. *)
val fold : ledger -> Txn.t -> unit

(** Make {!due} true until the next checkpoint. *)
val request_checkpoint : ledger -> unit

(** A checkpoint was requested, or 64 records are folded. *)
val due : ledger -> bool

(** Take the checkpoint of [tree] as of [seq] and prune the folded
    records.  Does not block. *)
val checkpoint :
  ledger ->
  seq:int ->
  max_request_seq:int ->
  quarantine:Data.Path.t list ->
  started:int list ->
  Data.Tree.t ->
  unit

(** Every readable transaction record of the shard, in key order. *)
val records : name:string -> Coord.Client.t -> ns:string -> Txn.t list

(** Apply a transaction's log records to [tree]; records that do not apply
    are logged as failures of [what] and skipped. *)
val apply_log :
  name:string -> what:string -> Dsl.env -> Data.Tree.t -> Txn.t -> Xlog.t ->
  Data.Tree.t

(** The checkpoint's tree, with the undo logs of its [started] txns that
    are now Aborted or Failed applied, newest first, then the Started and
    Committed records beyond its [seq] replayed in [start_seq] order; a
    cross-shard coordinator replays only the records [shard] owns. *)
val replay :
  name:string ->
  Dsl.env ->
  checkpoint ->
  shard:Shard.t ->
  Txn.t list ->
  Data.Tree.t

(** What a leader must restore besides its tables. *)
type t = {
  next_start_seq : int;
  max_request_seq : int;
      (** highest of this shard's own request ids, and the checkpoint's *)
  quarantine : Data.Path.t list;
      (** the checkpoint's set and the write sets of Failed records *)
}

(** Rebuild [txns], [locks], [sched] and the 2PC tables from [records],
    offering to the phyQ every single-shard Started transaction that is
    neither queued, executing nor reported.  [txns] gets the live
    (Accepted, Deferred, Started) records only, and each terminal shadow
    record leaves its {!Twopc.retire} tombstone: the state a leader that
    never failed over holds.  The ledger starts from [checkpoint] and
    folds in the terminal records. *)
val rebuild :
  ledger ->
  Coord.Client.t ->
  checkpoint:checkpoint ->
  txns:(int, Txn.t) Hashtbl.t ->
  locks:Mglock.t ->
  sched:Sched.t ->
  twopc:Twopc.t ->
  Txn.t list ->
  t
