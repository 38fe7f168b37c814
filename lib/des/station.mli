(** Single-server FIFO service station.

    Models a serial resource (a CPU core, a disk, a replica's apply loop):
    jobs queue up and are served one at a time, each occupying the server
    for its service time.  The cumulative busy time lets harnesses compute
    utilization over arbitrary windows — this is how the reproduction
    measures "controller CPU utilization" (Fig. 4). *)

type t

val create : ?name:string -> Sim.t -> t

(** [request st ~service] blocks the calling process until a job with the
    given service time (seconds) has been fully served, FIFO behind earlier
    jobs.  @raise Invalid_argument if [service] is negative. *)
val request : t -> service:float -> unit

(** [post st ~service] enqueues work without waiting for completion. *)
val post : t -> service:float -> unit

(** Cumulative time the server has spent serving jobs. *)
val busy_time : t -> float

(** Jobs queued or in service right now. *)
val queue_length : t -> int

(** Jobs fully served so far. *)
val completed : t -> int
