(** Idempotent fail-over recovery (paper §2.3): a new leader loads the
    last checkpoint, undoes the txns it included that have rolled back
    since, replays the Started and Committed records beyond it in
    [start_seq] order, then rebuilds its lock table, scheduler and 2PC
    tables from the records, re-offering what the phyQ and result scans
    show was lost.  Signals need no scan: a KILL is the terminal record, a
    TERM the record's [termed] flag.

    {b Layout.}  A checkpoint is the base (the full tree the bootstrap
    writes), one overlay per device root changed since, and a meta value.
    Its tree includes the effects of every txn with [start_seq <= seq]
    that was Started or Committed when it was taken: the [started] ones,
    and the committed ones whose records it pruned. *)

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

(** The writes that make [c] the checkpoint, given [prev], the tree of the
    last one: an overlay per device root whose subtree is not physically
    [prev]'s, then the meta.  A change outside every device root writes a
    new base instead and deletes the overlays of [roots]. *)
val checkpoint_ops :
  ns:string ->
  roots:Data.Path.t list ->
  is_root:(Data.Path.t -> bool) ->
  prev:Data.Tree.t ->
  checkpoint ->
  Coord.Types.op list

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
    never failed over holds. *)
val rebuild :
  name:string ->
  Coord.Client.t ->
  ns:string ->
  shard:Shard.t ->
  checkpoint:checkpoint ->
  txns:(int, Txn.t) Hashtbl.t ->
  locks:Mglock.t ->
  sched:Sched.t ->
  twopc:Twopc.t ->
  persist:Persist.t ->
  Txn.t list ->
  t
