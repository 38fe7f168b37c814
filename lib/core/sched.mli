(** Conflict-driven transaction scheduler (paper §3.1.1, refactored).

    The paper's todoQ is split into an explicit {e ready} queue and a
    {e blocked} table, and this module is the one place that knows why a
    transaction is parked, since when, and what wakes it.  Each blocked
    entry records its {!cause}:
    - a lock conflict ([Lock], with the park time): its waiter
      registration lives in {!Mglock}, and a release that reports it
      wakes it — O(woken) re-attempts instead of a rescan of the whole
      todoQ per completion;
    - a tripped breaker ([Breaker], with the gated device roots): the
      health duty wakes it once {!Health.regate} admits every root;
    - a cross-shard prepare ([Votes]): nothing wakes it, the 2PC drain
      removes it once the votes (or the timeout) decide it.

    One work-conserving policy replaces the paper's strict FIFO (and the
    "aggressive" variant it sketches as future work): every ready
    transaction is attempted, and a parked one blocks only transactions
    whose locks conflict with it.  FIFO's guarantee for the head is kept
    by the lock manager, not by stopping the queue: the oldest parked
    transaction's wanted set is reserved ({!Mglock.try_acquire}), so
    nothing younger can take what it waits for.

    Wakes are buffered: {!wake} only marks blocked entries, and the next
    {!drain} delivers them all at once to the {e front} of the ready queue
    in ascending txn id (= submission) order, so a long-deferred
    transaction is always retried before anything newer — the
    defer-don't-block no-deadlock argument and FIFO fairness carry over
    from the rescan implementation unchanged. *)

(** Why a transaction is parked. *)
type cause =
  | Lock of float
      (** refused by the lock manager at this sim time; parked in its
          waiter index with {!Mglock.wait} *)
  | Breaker of Data.Path.t list
      (** deferred at admission by an open breaker on one of these
          device roots *)
  | Votes  (** a cross-shard coordinator gathering its participants' votes *)

(** Outcome of one admission attempt, reported by the controller callback:
    [`Started] (locks granted, handed to the physical layer), [`Finished]
    (terminal without starting — constraint violation, quarantine),
    [`Parked cause] (moves to the blocked table). *)
type attempt = [ `Started | `Finished | `Parked of cause ]

type t

(** [stats] is the shard's record: the scheduler counts the wakes it
    delivers from a lock park into [wakeups] (a breaker re-gate is not
    one), and the woken transactions that park again into
    [spurious_wakeups].  A wake counts when it is delivered, so one a
    crashed leader delivered but never attempted still counts. *)
val create : stats:Stats.stats -> unit -> t

(** Enqueue a newly accepted transaction at the back of the ready queue. *)
val submit : t -> Txn.t -> unit

(** Deliver the pending wakes (front of the ready queue, ascending id),
    then run every ready transaction through [attempt] until the queue is
    empty; blocked transactions are not re-attempted.  [woken] is the
    cause the transaction was woken from, [None] on its first attempt.
    Wakes posted during the drain wait for the next one. *)
val drain : t -> attempt:(Txn.t -> woken:cause option -> attempt) -> unit

(** Mark blocked transactions for delivery by the next {!drain}.  Ids that
    are not blocked — signalled away, or internal lock owners — are
    ignored. *)
val wake : t -> int list -> unit

(** Some wake awaits delivery. *)
val has_wakes : t -> bool

(** The blocked transactions no wake is pending for, ascending by id, with
    their causes. *)
val parked : t -> (int * cause) list

(** Drop a transaction wherever it sits, with any pending wake
    (signal-before-start path).  The caller is responsible for
    {!Mglock.cancel_wait} when the result is [`Blocked]. *)
val remove : t -> int -> [ `Ready | `Blocked | `Absent ]

val blocked_length : t -> int

(** ready + blocked — the refactored equivalent of the old todoQ length. *)
val length : t -> int
