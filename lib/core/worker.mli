(** Physical-layer worker (paper §3.2).

    Workers compete for transactions on phyQ, replay each execution log
    against the devices (checking for TERM/KILL signals between actions)
    and report the outcome back to the controller through inputQ.  A take
    is one atomic multi-op command (the phyQ item's delete and the
    executing marker's create), and so is a finish (the result, the
    progress cursor's delete and the marker's).  The finish is pipelined:
    the worker looks for its next item while the finish is in flight, and
    the session keeps the next take behind it in the leader's log.

    Takes are herd-free: a worker of rank [r] reads the [r + 1] oldest
    phyQ items in one round trip, tries the [r]-th first and then the
    older ones, and on a lost race moves to the next candidate instead of
    re-reading the head.

    In logical-only mode (paper §5) device calls are bypassed: the worker
    just models a small handling delay and reports success — the mode the
    performance evaluation (Figs. 4, 5) runs in. *)

type mode =
  | Full
  | Logical_only of float  (** stand-in handling delay per transaction *)

type t

(** [retry] (default {!Physical.no_retry}) is the per-action robustness
    policy applied to every log replayed by this worker.  [trace]
    (default {!Trace.off}) records a replay span (plus
    per-action/backoff/undo spans in [Full] mode) for every transaction
    this worker executes.  [ns] is the
    shard namespace whose queues this worker serves (default
    {!Proto.default_ns}); [client] must connect to that shard's
    coordination ensemble.  [rank] (default 0) is the worker's index in
    its shard's pool, kept across restarts.  [stats] is the shard's
    record: the worker counts every take that lost the race into its
    [take_conflicts]. *)
val create :
  ?retry:Physical.retry_policy ->
  ?trace:Trace.t ->
  ?ns:string ->
  ?rank:int ->
  stats:Stats.stats ->
  name:string ->
  client:Coord.Client.t ->
  mode:mode ->
  devices:Physical.device_lookup ->
  sim:Des.Sim.t ->
  unit ->
  t

val start : t -> unit
val crash : t -> unit
val name : t -> string
