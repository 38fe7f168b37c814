(** Physical-layer execution (paper §3.2): replay an execution log against
    the devices; on an action failure, execute the undo actions of the
    already-completed prefix in reverse chronological order.

    If an undo itself fails, undoing stops (undos may have temporal
    dependencies — paper footnote 2) and the transaction is failed,
    leaving a cross-layer inconsistency for reconciliation to repair.

    On top of the replay loop sits a per-action robustness policy:
    transient errors (offline devices, injected blips, deadline
    timeouts) are retried in place — bounded attempts, exponential
    backoff with deterministic jitter drawn from the sim rng — before
    the action is declared failed and rollback starts; and each
    invocation runs under a deadline so a hung device surfaces as a
    retryable timeout instead of blocking the worker forever. *)

(** Resolve the device owning a resource path (exact root or ancestor). *)
type device_lookup = Data.Path.t -> Devices.Device.t option

(** Consulted between actions (and between retry attempts); [`Term] stops
    with a graceful undo roll back, [`Kill] stops immediately leaving
    physical state as-is. *)
type signal_check = unit -> [ `Go | `Term | `Kill ]

(** Per-action robustness policy.  An action is attempted up to
    [max_attempts] times; attempt [n+1] happens after a backoff of
    [min backoff_cap (backoff_base * backoff_factor^(n-1))] scaled by a
    uniform jitter in [1 ± jitter].  Each attempt is bounded by
    [deadline] simulated seconds (the replay must run inside a DES
    process); expiry kills the invocation and counts as a transient
    timeout. *)
type retry_policy = {
  max_attempts : int;
  backoff_base : float;
  backoff_factor : float;
  backoff_cap : float;
  jitter : float;
  deadline : float option;
}

(** Single attempt, no deadline: the pre-robustness behaviour. *)
val no_retry : retry_policy

(** 4 attempts, 0.5s base doubling to an 8s cap, ±50% jitter, 30s
    per-action deadline. *)
val default_retry : retry_policy

(** Nominal (jitter-free) backoff before retry [n] (first retry is 1). *)
val backoff_nominal : retry_policy -> int -> float

(** Jittered backoff before retry [n]; deterministic given [rng]. *)
val backoff_delay : retry_policy -> rng:Random.State.t -> int -> float

(** Robustness counters, accumulated across one or more [execute] calls.
    [undo_s] accumulates sim seconds spent rolling back. *)
type counters = {
  mutable retries : int;
  mutable transient_failures : int;
  mutable timeouts : int;
  mutable undo_s : float;
}

val fresh_counters : unit -> counters

(** [invoke_deadline ~sim ~deadline ~counters ~action invoke] runs
    [invoke] (one device invocation, of [action]) in a child process
    bounded by [deadline] simulated seconds: on expiry the child is killed,
    [counters.timeouts] is bumped and a transient timeout error is
    returned.  With no [deadline] it runs [invoke] inline. *)
val invoke_deadline :
  sim:Des.Sim.t ->
  deadline:float option ->
  counters:counters ->
  action:string ->
  (unit -> (unit, Devices.Device.error) result) ->
  (unit, Devices.Device.error) result

(** [execute ~devices ~sim ~counters ~tracer:(trace, txn, lane) log]
    replays [log].  [policy] defaults to {!no_retry}.  Deadlines and
    backoffs run on [sim]'s clock, and backoff jitter is drawn from
    [sim]'s rng.  [counters] is incremented in place.  [trace] records
    per-attempt action spans, backoff spans and undo chains under
    transaction [txn] in [lane] (nothing, if it is {!Trace.off}).

    [skip] (default 0) treats the first [skip] records as already
    executed by a previous incarnation of this replay: they are not
    re-invoked — their effects are on the devices — but they join the
    undo prefix, so a later failure still rolls them back.
    [on_progress] is called with each record's index once its action
    completes, and again as undos retire records (with the index {e
    below} the undone record — [0] for a fully undone prefix, indices
    being 1-based); persisting that cursor is what makes a crashed
    replay resumable.

    [check_signal] is consulted once more before a rollback with a
    non-empty executed prefix.  [`Kill] abandons the rollback and reports
    the abort with the physical state left as-is: a worker that lost a
    duplicate-replay race re-reads the authoritative record and refuses
    to unwind effects the winning incarnation already committed. *)
val execute :
  devices:device_lookup ->
  sim:Des.Sim.t ->
  counters:counters ->
  tracer:Trace.t * int * int ->
  ?check_signal:signal_check ->
  ?policy:retry_policy ->
  ?skip:int ->
  ?on_progress:(int -> unit) ->
  Xlog.t ->
  Proto.outcome

(** [lookup_of_list devices] builds a {!device_lookup} that matches a path
    to the device whose root is the path itself or its nearest ancestor. *)
val lookup_of_list : Devices.Device.t list -> device_lookup
