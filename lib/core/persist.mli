(** The controller's record write path: every transaction state
    transition is written to the coordination service as its record.

    Within a deferral window ({!defer} … {!release}) record writes are
    deferred (the latest state per transaction wins) and phyQ offers
    buffered; {!release} commits the records, the offers and the consumed
    inputQ items as ONE atomic multi-op command — one log entry per state
    transition, however many transactions the window touched.  Atomicity,
    not write ordering, is what keeps a phyQ item from being visible before
    the Started record it announces, and an input item from vanishing
    before the record its processing produced. *)

type t

val create : name:string -> ns:string -> client:Coord.Client.t -> t

(** Write [txn]'s record: deferred while deferring, synchronous otherwise. *)
val write : t -> Txn.t -> unit

(** Write [txn]'s record now, even while deferring (a durability promise). *)
val write_now : t -> Txn.t -> unit

(** Offer [txn_id] to the phyQ: buffered while deferring, immediate
    otherwise. *)
val offer : t -> int -> unit

(** Start deferring record writes and phyQ offers. *)
val defer : t -> unit

(** Commit the deferred records and buffered offers in one multi
    (deferral stays on). *)
val flush : t -> unit

(** Stop deferring and commit, in one multi, the deferred records (sorted
    by txn id), the buffered offers and the deletion of [deletes] (inputQ
    items the window consumed; a missing one is skipped). *)
val release : ?deletes:string list -> t -> unit

(** Ops sent and not yet durable, plus the deferred records. *)
val unfinished : t -> int
