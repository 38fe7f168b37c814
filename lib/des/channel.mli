(** Unbounded FIFO channels between processes.

    [send] never blocks and may be called from anywhere (including plain
    simulator events); [recv] blocks the calling process until an item is
    available.  Items are delivered in FIFO order to waiting receivers in
    FIFO order.  An item handed to a receiver that was killed before its
    resumption event fires is dropped (crash = loss, as on a real host). *)

type 'a t

val create : unit -> 'a t

(** Enqueue an item (or hand it to the oldest waiting receiver). *)
val send : 'a t -> 'a -> unit

(** Dequeue an item, blocking the calling process if the channel is empty. *)
val recv : 'a t -> 'a

(** Like {!recv} but gives up after [timeout] seconds, returning [None]. *)
val recv_timeout : 'a t -> timeout:float -> 'a option

(** Dequeue without blocking. *)
val try_recv : 'a t -> 'a option

(** Items currently queued (excludes waiting receivers). *)
val length : 'a t -> int
