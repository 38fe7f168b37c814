(** Leader-side stall watchdog.

    Paper §4 assumes an {e operator} notices a stalled transaction and
    issues TERM/KILL.  The watchdog automates the operator: every
    in-flight (Started) transaction gets a deadline derived from its
    execution log — [slack + latency_factor × Σ default action
    latencies] — and once the deadline passes the watchdog escalates:

    {v Armed --deadline--> Termed --term_grace--> Killed --kill_grace--> (re-KILL) v}

    TERM asks the worker for a graceful undo; if the transaction is still
    Started after [term_grace] (worker hung or dead), KILL makes the
    controller abandon the physical side: logical rollback, quarantine of
    the written subtrees, lock release.  A transaction that somehow stays
    Started after a KILL (e.g. the kill item died with a leader) is
    re-KILLed every [kill_grace].

    The timer table is soft state: {!scan} drops entries for finished
    transactions and arms unseen Started ones from the current time, so a
    recovering leader re-derives the whole table idempotently from its
    recovered transaction set. *)

type config = {
  enabled : bool;
  latency_factor : float;  (** deadline multiplier over nominal latency *)
  slack : float;           (** flat allowance for queueing/dispatch, seconds *)
  term_grace : float;      (** TERM → KILL escalation delay *)
  kill_grace : float;      (** re-KILL period while still Started *)
  poll_interval : float;   (** how often the controller scans *)
}

(** Enabled; factor 4, slack 5s, graces 10s, poll 2s. *)
val default_config : config

val disabled : config

type stage = Armed | Termed | Killed

type t

val create : config -> t

(** One pass: reconcile the timer table against [started] (the in-flight
    transactions with their logs), then escalate every overdue entry via
    [signal].  No-op when the config is disabled. *)
val scan :
  t ->
  now:float ->
  started:(int * Xlog.t) list ->
  signal:(int -> Proto.signal -> unit) ->
  unit
