(** Idempotent fail-over recovery (paper §2.3): a new leader loads the
    last quiescent checkpoint, replays the Started and Committed records
    beyond it in [start_seq] order, then rebuilds its lock table,
    scheduler and 2PC tables from the records, re-offering what the
    phyQ and result scans show was lost.  Signals need no scan: a KILL is
    the terminal record, a TERM the record's [termed] flag. *)

(** The last checkpoint: [(seq, tree)].  Waits for the bootstrap one. *)
val load_checkpoint : Coord.Client.t -> ns:string -> int * Data.Tree.t

(** [save_checkpoint ~seq tree client ~ns] writes a checkpoint of [tree]
    as of [seq]; false if the write failed.  [tree] is serialized once
    [~seq] and [tree] are applied, so a partial application can write the
    same checkpoint to several shards. *)
val save_checkpoint :
  seq:int -> Data.Tree.t -> Coord.Client.t -> ns:string -> bool

(** Every readable transaction record of the shard, in key order. *)
val records : name:string -> Coord.Client.t -> ns:string -> Txn.t list

(** Apply a transaction's log records to [tree]; records that do not apply
    are logged as failures of [what] and skipped. *)
val apply_log :
  name:string -> what:string -> Dsl.env -> Data.Tree.t -> Txn.t -> Xlog.t ->
  Data.Tree.t

(** Replay the Started and Committed records beyond [checkpoint_seq] onto
    [tree], in [start_seq] order; a cross-shard coordinator replays only
    the records [shard] owns. *)
val replay :
  name:string ->
  Dsl.env ->
  Data.Tree.t ->
  checkpoint_seq:int ->
  shard:Shard.t ->
  Txn.t list ->
  Data.Tree.t

(** What a leader must restore besides its tables. *)
type t = {
  next_start_seq : int;
  max_request_seq : int;  (** highest of this shard's own request ids *)
  quarantine : Data.Path.t list;  (** write sets of Failed records *)
  prune : string list;  (** terminal record keys, newest first *)
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
  checkpoint_seq:int ->
  txns:(int, Txn.t) Hashtbl.t ->
  locks:Mglock.t ->
  sched:Sched.t ->
  twopc:Twopc.t ->
  persist:Persist.t ->
  Txn.t list ->
  t
