(** Payloads carried through the distributed queues.

    [inputQ] multiplexes three kinds of items (paper Fig. 1/2): client
    orchestration requests, execution results from physical workers, and
    operator control commands (reconciliation, signals).  [phyQ] carries
    bare transaction ids — workers fetch the execution log from the
    transaction record. *)

type signal = Term | Kill

val signal_to_string : signal -> string

type control =
  | Reload of Data.Path.t             (** physical -> logical sync *)
  | Repair of Data.Path.t             (** logical -> physical sync *)
  | Signal of int * signal            (** unstick a transaction *)

type outcome =
  | Phy_committed
  | Phy_aborted of string  (** an action failed; undo chain completed *)
  | Phy_failed of string   (** an undo failed too: layers now inconsistent *)

(** Physical-layer robustness counters a worker accumulated while
    executing one transaction (retried attempts, transient device
    errors observed, per-action deadline expiries), plus phase timings
    in sim seconds so the controller can build per-phase latency
    breakdowns without a trace attached. *)
type exec_stats = {
  retries : int;
  transient_failures : int;
  timeouts : int;
  replay_s : float;
  undo_s : float;
}

val no_exec_stats : exec_stats

type input_item =
  | Request of { proc : string; args : Data.Value.t list }
  | Result of { txn_id : int; outcome : outcome; exec : exec_stats }
  | Control of control

val input_to_string : input_item -> string
val input_of_string : string -> (input_item, string) result

(** Extract the numeric suffix of a queue item key
    (e.g. ".../item-0000000042" -> 42). *)
val seq_of_item_key : string -> (int, string) result

(** {1 Transaction ids}

    An id carries its shard in the residue, [id = seq * shards + sid]
    with [seq] the sequence number of its request item in shard [sid]'s
    inputQ, so any party routes an id without a lookup. *)

val txn_id : shards:int -> sid:int -> int -> int
val shard_of_txn : shards:int -> int -> int

(** {1 Well-known coordination-service keys}

    Every shard runs the full controller/worker key layout under its own
    namespace on its own coordination ensemble.  Shard 0 keeps the
    historical ["/tropic"] prefix, so a single-shard platform is laid out
    exactly as before sharding. *)

val ns_of_shard : int -> string
val default_ns : string
val election_path_ns : string -> string
val input_queue_ns : string -> string
val phy_queue_ns : string -> string

(** Every key of the checkpoint is a child of this prefix. *)
val checkpoint_prefix_ns : string -> string

(** The base checkpoint: the full tree the bootstrap writes, as
    [(seq tree)]. *)
val checkpoint_key_ns : string -> string

(** The checkpoint's meta value: its [seq], [max_request_seq], quarantine
    set and the Started txns whose effects its tree includes. *)
val checkpoint_meta_key_ns : string -> string

(** One value per device root changed since the base: the root's subtree,
    an overlay on the base. *)
val overlay_key_ns : string -> Data.Path.t -> string

val txns_prefix_ns : string -> string
val executing_prefix_ns : string -> string
val executing_key_ns : string -> int -> string

(** Durable replay cursor: highest log index whose physical action has
    completed and not been undone.  Lets a replay after a worker or
    leader crash {e resume} instead of re-running non-idempotent actions
    whose effects already landed on the device. *)
val progress_key_ns : string -> int -> string

val progress_prefix_ns : string -> string
