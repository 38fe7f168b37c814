(** ZooKeeper-style client recipes used by TROPIC: replicated FIFO queues
    (inputQ, phyQ) and leader election for the controller group.

    Consumers read a queue with {!Client.children_values} and take an item
    with a delete (or a multi that deletes it).  The election recipe treats
    watch events purely as wake-up hints and re-checks state on a timeout,
    so it stays correct when one-shot watches are lost across a
    coordination-service leader change. *)

(** {1 Distributed FIFO queue} *)

(** [enqueue client ~queue value] appends an item; returns its key. *)
val enqueue : Client.t -> queue:string -> string -> string

(** The same append as one op of a {!Client.multi}. *)
val enqueue_op : queue:string -> string -> Types.op

(** {1 Leader election} *)

(** [join_election client ~election ~payload] registers an ephemeral
    sequential member node; returns the member key.  The member with the
    smallest key is the leader; dead members disappear with their session. *)
val join_election : Client.t -> election:string -> payload:string -> string

(** Block until [member] is the smallest member of the election group. *)
val await_leadership : Client.t -> election:string -> member:string -> unit
