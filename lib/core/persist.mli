(** The controller's record write path: every transaction state
    transition is written to the coordination service as its record.

    Within a burst ({!defer} … {!release}) record writes are deferred (the
    latest state per transaction wins) and phyQ offers buffered; {!release}
    writes the records, overlapped through the persist-session pool, and
    only then makes the offers — no phyQ item is visible before the Started
    record it announces.  Without a pool nothing is deferred: the flush
    would only replay the same writes serially. *)

type t

(** [pool]: extra coordination sessions; empty keeps writes on [client]. *)
val create :
  sim:Des.Sim.t ->
  name:string ->
  ns:string ->
  client:Coord.Client.t ->
  pool:Coord.Client.t list ->
  t

(** Write [txn]'s record: deferred while deferring, synchronous otherwise. *)
val write : t -> Txn.t -> unit

(** Write [txn]'s record now, even while deferring (a durability promise). *)
val write_now : t -> Txn.t -> unit

(** Offer [txn_id] to the phyQ: buffered while deferring, immediate
    otherwise. *)
val offer : t -> int -> unit

(** Start deferring record writes and phyQ offers. *)
val defer : t -> unit

(** Write the deferred records (deferral stays on). *)
val flush : t -> unit

(** Stop deferring, write the deferred records, then make the buffered
    offers. *)
val release : t -> unit

(** Delete queue items, overlapped through the pool. *)
val delete_items : t -> string list -> unit

(** Record writes and queue jobs not yet durable, deferred ones included. *)
val unfinished : t -> int

(** inputQ items per pass: a burst only pays off when a pool overlaps its
    writes. *)
val input_burst : t -> int

(** Spawn one worker per pool session; the caller kills them on crash. *)
val start_workers : t -> Des.Proc.t list

(** Close the pool sessions. *)
val close : t -> unit
