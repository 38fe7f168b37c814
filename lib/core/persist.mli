(** The controller's record write path: every transaction state
    transition is written to the coordination service as its record.

    Within a deferral window ({!defer} … {!release}) record writes are
    deferred (the latest state per transaction wins), and phyQ offers and
    deletes buffered.  {!release} turns the window into ONE list of ops —
    the records, the offers and the deletes (the inputQ items the window
    consumed among them) — and sends it as one multi without blocking.
    Atomicity, not write ordering, is what keeps a phyQ item from being
    visible before the Started record it announces, and an input item
    from vanishing before the record its processing produced.

    {b Pipelined.}  Every released window goes out at once with
    {!Coord.Client.multi_async_lazy}, so several multis can be in flight;
    a window released while the previous multi is still held back by the
    session (behind an earlier receipt) joins it.  The session's ordered
    admission puts them in the leader's log in release order, and a multi
    is all-or-none, so what is durable is always a prefix of the released
    windows, whole windows only.  Answers can arrive out of order; the
    acked count advances over the answered prefix only.

    {b Barrier rule.}  Any coord write the controller makes outside this
    module (controls, 2PC writes on the same session) must first call
    {!barrier}, so that it lands after every window released before it is
    durable — the order a synchronous writer gave.  A checkpoint needs no
    barrier: it goes out through {!append}, behind every window. *)

type t

val create : name:string -> ns:string -> client:Coord.Client.t -> t

(** Write [txn]'s record: deferred while deferring, otherwise sent and
    awaited like {!write_now}. *)
val write : t -> Txn.t -> unit

(** Write [txn]'s record now, even while deferring, and wait until it is
    durable (a durability promise). *)
val write_now : t -> Txn.t -> unit

(** Offer [txn_id] to the phyQ: buffered while deferring, sent
    otherwise. *)
val offer : t -> int -> unit

(** Delete [key]: buffered while deferring (a missing key is skipped),
    sent otherwise.  {!deleting} holds from here until it is durable. *)
val delete : t -> string -> unit

(** Run [note] once the next window ({!release}, {!flush} or {!append})
    is durable; a window whose multi fails never runs it. *)
val on_durable : t -> (unit -> unit) -> unit

(** Start deferring record writes, phyQ offers and deletes. *)
val defer : t -> unit

(** Send the deferred records, offers and deletes (deferral stays on) and
    wait until they and everything queued before them are durable. *)
val flush : t -> unit

(** Stop deferring and send, as one window, the deferred records (sorted
    by txn id), then the buffered offers and deletes.  Does not block. *)
val release : t -> unit

(** Send the deferred records, offers and deletes, then [ops], as one
    window behind every multi sent before.  Does not block. *)
val append : t -> Coord.Types.op list -> unit

(** Wait until every op sent so far is durable. *)
val barrier : t -> unit

(** Whether the deletion of [key] is in flight. *)
val deleting : t -> string -> bool

(** Number of keys whose deletion is in flight. *)
val deleting_count : t -> int

(** Ops in flight and not yet durable, plus the deferred records. *)
val unfinished : t -> int
