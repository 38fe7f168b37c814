(** The controller's record write path: every transaction state
    transition is written to the coordination service as its record.

    Within a deferral window ({!defer} … {!release}) record writes are
    deferred (the latest state per transaction wins) and phyQ offers
    buffered.  {!release} turns the window into ONE list of ops — the
    records, the offers and the deletion of the inputQ items the window
    consumed — and queues it without blocking.  Atomicity, not write
    ordering, is what keeps a phyQ item from being visible before the
    Started record it announces, and an input item from vanishing before
    the record its processing produced.

    A writer process ({!start}) sends the queue.  It keeps at most one
    multi in flight; when that multi is acked it sends everything queued
    meanwhile as one concatenated multi.  Windows leave in release order
    and a multi is all-or-none, so what is durable is always a prefix of
    the released windows, whole windows only.  One command in flight per
    session also keeps the store's per-session request dedup safe.

    {b Barrier rule.}  Any coord write the controller makes outside this
    module (signal markers, controls, checkpoints and prunes, 2PC writes
    on the same session) must first call {!barrier}, so that it lands
    after every window released before it — the order a synchronous
    writer gave. *)

type t

val create : name:string -> ns:string -> client:Coord.Client.t -> t

(** Spawn the writer process.  The caller owns it (kills it on crash);
    until it runs, queued ops stay queued and {!barrier} blocks. *)
val start : t -> Des.Proc.t

(** Write [txn]'s record: deferred while deferring, otherwise queued and
    awaited like {!write_now}. *)
val write : t -> Txn.t -> unit

(** Write [txn]'s record now, even while deferring, and wait until it is
    durable (a durability promise). *)
val write_now : t -> Txn.t -> unit

(** Offer [txn_id] to the phyQ: buffered while deferring, queued
    otherwise. *)
val offer : t -> int -> unit

(** Start deferring record writes and phyQ offers. *)
val defer : t -> unit

(** Send the deferred records and buffered offers (deferral stays on) and
    wait until they and everything queued before them are durable. *)
val flush : t -> unit

(** Stop deferring and queue, as one window, the deferred records (sorted
    by txn id), the buffered offers and the deletion of [deletes] (inputQ
    items the window consumed; a missing one is skipped).  Does not
    block. *)
val release : ?deletes:string list -> t -> unit

(** Wait until every op queued so far is durable. *)
val barrier : t -> unit

(** Whether the deletion of [key] is queued or in flight. *)
val deleting : t -> string -> bool

(** Number of keys whose deletion is queued or in flight. *)
val deleting_count : t -> int

(** Ops queued or in flight and not yet durable, plus the deferred
    records. *)
val unfinished : t -> int
