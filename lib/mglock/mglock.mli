(** Multi-granularity lock manager over the resource tree (paper §3.1.3).

    Modes follow the classic hierarchy-locking scheme: [R]/[W] on the object
    itself, intention locks [IR]/[IW] placed automatically on every ancestor
    so conflicts are detected high up the tree.  Per the paper: IW conflicts
    with R and W; IR conflicts with W only.

    Acquisition is all-or-nothing: a transaction's full lock set is either
    granted atomically or refused with the first conflict, leaving the table
    untouched.  Combined with the scheduler's defer-and-retry policy this
    rules out deadlocks — a transaction never holds some locks while waiting
    for others.

    The table is keyed by tree paths and nothing outlives it.  It doubles
    as the scheduler's wake-up index: a deferred transaction parks on the
    node its conflict arose at ({!wait}), and {!release_all} returns every
    parked transaction whose node the releasing transaction held — the set
    that may now be grantable.  Wakeups over-approximate (a woken waiter can
    still conflict with a remaining holder and re-park), but never
    under-approximate: a waiter's node always has at least one conflicting
    holder, and every holder eventually releases.

    {b Head reservation.}  A registration also records the waiter's wanted
    lock set.  The oldest registered waiter (lowest id) reserves that set:
    {!try_acquire} refuses any younger transaction whose request conflicts
    with it, even when no holder does, so a parked head is never overtaken
    on the locks it is waiting for while unrelated work keeps flowing.
    The reservation is part of the registration — it ends exactly when
    the registration does ({!release_all}'s wake, {!cancel_wait}, or a
    re-{!wait}) — so it can never outlive the waiter. *)

type mode = R | W | IR | IW

val mode_to_string : mode -> string

(** [compatible a b] — can locks of modes [a] and [b] be held on the same
    object by two different transactions? (Symmetric.) *)
val compatible : mode -> mode -> bool

(** [join a b] is the weakest mode at least as strong as both; used to merge
    requests by the same transaction on the same object ([R ∨ IW] has no
    exact mode in this lattice and widens to [W]). *)
val join : mode -> mode -> mode

(** Intention mode to place on ancestors of an object locked with the given
    mode. *)
val intention : mode -> mode

type t

type conflict = {
  path : Data.Path.t;
      (** object on which the conflict arose — the node to {!wait} on.  For
          a reservation conflict it is the node the reserving waiter is
          parked on, so the refused transaction is woken with it. *)
  wanted : mode;
  holder : int;
      (** transaction currently in the way: a holder, or the reserving
          waiter *)
  held : mode;  (** the holder's mode, or the waiter's wanted mode *)
  reserved : bool;  (** refused by the head's reservation, not a holder *)
}

val pp_conflict : Format.formatter -> conflict -> unit

val create : unit -> t

(** [try_acquire t ~txn locks] atomically grants [locks] (plus the implied
    intention locks on every ancestor, including the root) to [txn], or
    returns the first conflict — in deterministic path order — without
    changing any state.  Locks already held by [txn] are upgraded via
    {!join}.  Holder conflicts are reported before a reservation conflict,
    which applies only when the oldest registered waiter's id is lower than
    [txn] (internal lock owners use negative ids, so they are never
    refused by one).  [~reservations:false] skips the reservation check —
    for a transaction that is already admitted and only swaps its lock set.
    *)
val try_acquire :
  ?reservations:bool ->
  t -> txn:int -> (Data.Path.t * mode) list -> (unit, conflict) result

(** [wait t ~txn ~on locks] parks [txn] on the node its conflict arose at
    (the [path] field of the refused {!conflict}) and records [locks] — the
    request that was refused — as its wanted set.  A transaction waits on
    at most one node; a second call re-parks it.  Precondition: some other
    transaction currently holds a lock on [on] conflicting with [txn] or
    with the waiter reserving against it — parking on an unheld node would
    never be woken. *)
val wait :
  t -> txn:int -> on:Data.Path.t -> (Data.Path.t * mode) list -> unit

(** Drop [txn]'s waiter registration and its reservation, if any
    (signal/abort paths). *)
val cancel_wait : t -> txn:int -> unit

(** Release everything held by [txn]; returns the ids of transactions that
    were parked on a node [txn] held — deduplicated, ascending, and removed
    from the waiters index.  The caller must re-attempt (and possibly
    re-park) each of them. *)
val release_all : t -> txn:int -> int list

(** The node [txn] is parked on, if any. *)
val waiting_on : t -> txn:int -> Data.Path.t option

(** Number of parked transactions — 0 at quiescence. *)
val waiter_count : t -> int

(** Transactions holding a lock on exactly this path, with their modes. *)
val holders : t -> Data.Path.t -> (int * mode) list

(** All paths locked by [txn] (including intention locks), sorted. *)
val held_by : t -> txn:int -> (Data.Path.t * mode) list

(** Number of (path, txn) lock entries in the table. *)
val lock_count : t -> int

(** Cumulative {!try_acquire} calls on this table — the contention
    benchmark's cost metric. *)
val acquire_attempts : t -> int
