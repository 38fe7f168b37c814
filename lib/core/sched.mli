(** Conflict-driven transaction scheduler (paper §3.1.1, refactored).

    The paper's todoQ is split into an explicit {e ready} queue and a
    {e blocked} table.  A transaction that hits a lock conflict moves to
    the blocked table (its waiter registration lives in {!Mglock}); when a
    completing transaction releases locks, only the waiters
    {!Mglock.release_all} reports are moved back to the ready queue —
    turning the per-completion retry cost from O(deferred × locks) rescans
    into O(woken) re-attempts.

    One work-conserving policy replaces the paper's strict FIFO (and the
    "aggressive" variant it sketches as future work): every ready
    transaction is attempted, and a parked one blocks only transactions
    whose locks conflict with it.  FIFO's guarantee for the head is kept
    by the lock manager, not by stopping the queue: the oldest parked
    transaction's wanted set is reserved ({!Mglock.try_acquire}), so
    nothing younger can take what it waits for.

    Wake order is deterministic: woken transactions rejoin the {e front}
    of the ready queue in ascending txn id (= submission) order, so a
    long-deferred transaction is always retried before anything newer —
    the defer-don't-block no-deadlock argument and FIFO fairness carry
    over from the rescan implementation unchanged. *)

(** Outcome of one admission attempt, reported by the controller callback:
    [`Started] (locks granted, handed to the physical layer), [`Finished]
    (terminal without starting — constraint violation, quarantine),
    [`Conflict] (locks refused; the callback has already parked the txn in
    the lock manager's waiter index via {!Mglock.wait}). *)
type attempt = [ `Started | `Finished | `Conflict ]

type t

val create : unit -> t

(** Enqueue a newly accepted transaction at the back of the ready queue. *)
val submit : t -> Txn.t -> unit

(** Run every ready transaction through [attempt] until the queue is
    empty; blocked transactions are not re-attempted.  [on_spurious] is
    called for a woken transaction whose re-attempt conflicts again. *)
val drain :
  t -> attempt:(Txn.t -> attempt) -> on_spurious:(Txn.t -> unit) -> unit

(** Move the given blocked transactions back to the ready queue (front,
    ascending id order).  Ids that are not blocked — signalled away, or
    internal lock owners — are ignored.  Returns how many actually moved. *)
val wake : t -> int list -> int

(** Drop a transaction wherever it sits (signal-before-start path).
    The caller is responsible for {!Mglock.cancel_wait} when the result is
    [`Blocked]. *)
val remove : t -> int -> [ `Ready | `Blocked | `Absent ]

val blocked_length : t -> int

(** ready + blocked — the refactored equivalent of the old todoQ length. *)
val length : t -> int
