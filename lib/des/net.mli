(** Simulated message-passing network with fault injection.

    Nodes are integers [0 .. node_count-1]; each has an inbox channel carrying
    [(src, message)] pairs.  Delivery is unicast, unordered across distinct
    latencies, and unreliable under injected faults:

    - a crashed node neither sends nor receives (its inbox is flushed);
    - partitioned node pairs drop messages at send time;
    - a global drop probability models lossy links;
    - messages in flight to a node that crashes are dropped at delivery. *)

type 'm t

val create :
  ?latency:(src:int -> dst:int -> rng:Random.State.t -> float) ->
  ?drop_rate:float ->
  Sim.t ->
  nodes:int ->
  'm t

val sim : 'm t -> Sim.t
val node_count : 'm t -> int

(** Add a node, up with an empty inbox; returns its id (the old {!node_count}). *)
val add_node : 'm t -> int

(** [send net ~src ~dst msg] attempts delivery of [msg] to [dst]'s inbox. *)
val send : 'm t -> src:int -> dst:int -> 'm -> unit

val inbox : 'm t -> int -> (int * 'm) Channel.t

val crash : 'm t -> int -> unit
val restart : 'm t -> int -> unit

(** [partition net a b] cuts all links between node groups [a] and [b]. *)
val partition : 'm t -> int list -> int list -> unit

(** Remove all partitions. *)
val heal : 'm t -> unit

(** [set_node_delay net i extra] adds [extra] seconds of latency to every
    message node [i] {e sends} (egress congestion: the node still hears
    the world on time, but the world hears it late).  Pass [0.] (or a
    negative value) to clear.  Messages already in flight keep the delay
    drawn at send time. *)
val set_node_delay : 'm t -> int -> float -> unit

(** Total messages actually delivered (for tests / stats). *)
val delivered : 'm t -> int

(** Total messages dropped by faults. *)
val dropped : 'm t -> int
