(** Per-device health scoring and circuit breaking.

    The physical layer already reports per-transaction execution stats
    (retries / transient failures / timeouts) through [Proto.Result]; the
    health tracker folds them — together with the commit outcome and the
    observed latency — into three EWMA scores per device subtree, each
    kept in [0, 1]:

    - failure: 1 on a physical abort/failure, ½ on a commit that needed
      retries, 0 on a clean commit;
    - timeout: 1 when any action hit its deadline, 0 otherwise;
    - latency: observed latency clamped against [latency_ref].

    The combined score is the max of the three.  When it crosses
    [trip_threshold] the subtree's circuit breaker trips:

    {v Closed --score >= threshold--> Tripped --cooldown--> Half_open
       Half_open --canary commits--> Closed (scores reset)
       Half_open --canary fails / probe lost--> Tripped v}

    While Tripped, {!admit} answers [`Defer] so the controller parks
    transactions that write under the subtree {e before} lock acquisition
    or hardware contact.  Once the cooldown elapses the breaker moves to
    Half_open and admits exactly one canary transaction (a probe); its
    outcome decides whether the breaker closes or re-trips.  A canary
    that never reports back (lost with a crashed worker) is given one
    cooldown before the breaker re-trips and later re-probes.

    All timestamps are simulation time; the tracker itself has no clock,
    callers pass [~now]. *)

type breaker_state = Closed | Tripped | Half_open

type config = {
  enabled : bool;
  alpha : float;  (** EWMA weight of the newest sample, in (0, 1] *)
  trip_threshold : float;  (** combined score that trips the breaker *)
  cooldown : float;  (** seconds Tripped must age before Half_open *)
  latency_ref : float;  (** latency mapping to score 1.0, seconds *)
  poll_interval : float;  (** health-monitor wake period, seconds *)
}

(** Enabled; alpha 0.35, threshold 0.6, cooldown 20s, latency_ref 120s,
    poll 1s. *)
val default_config : config

val disabled : config

(** Admission-control watermarks for the controller's pending queue.
    [queue_high = Some h] sheds new arrivals once the pending count
    reaches [h]; shedding stays on (hysteresis) until the count drains
    back to [queue_low]. *)
type admission = { queue_high : int option; queue_low : int }

val no_admission : admission

(** Admission hysteresis over one pending queue. *)
type shedder

val shedder : admission -> shedder

(** Whether to shed an arrival that finds [pending] transactions queued:
    shedding starts when [pending] reaches [queue_high] and stops once it
    drains to [queue_low]. *)
val shed : shedder -> pending:int -> bool

type t

(** [stats] is the shard's record: the tracker counts every breaker
    transition into [breaker_trips], [breaker_probes] and
    [breaker_closes], and every [`Defer] of {!admit} into
    [breaker_deferrals].  Each transition is also a ["health"] instant
    in [trace] (["breaker-trip"], ["breaker-probe"] or
    ["breaker-close"], with the subtree's [root]), on the canary's lane
    when one is involved and on the system lane otherwise. *)
val create : trace:Trace.t -> stats:Stats.stats -> config -> t

(** {1 Per-transaction admission and scoring} *)

(** Gate a writer on the device roots it writes.  [`Defer tripped] parks
    it: those roots' breakers are tripped (or a canary is already out).
    Otherwise [`Admit probes] names the half-open roots whose canary it
    may be; with tracking disabled every writer is admitted.  Gating is
    what ages Tripped into Half_open and re-trips a breaker whose canary
    was lost. *)
val admit :
  t -> now:float -> Data.Path.t list ->
  [ `Admit of Data.Path.t list | `Defer of Data.Path.t list ]

(** [txn] started: claim the canary slot of each of [probes] that is
    Half_open with no outstanding probe, and note the time its latency
    is scored from. *)
val start : t -> now:float -> txn:int -> probes:Data.Path.t list -> unit

(** Feed a started transaction's outcome into each root's scores and
    breaker state machine.  [ok] means physically committed.  A Tripped
    breaker only updates scores; it never changes state here (only
    {!admit} and {!regate} age it out).  Where [txn] is the outstanding
    canary, the breaker closes on success (scores reset) and re-trips on
    failure. *)
val report :
  t -> now:float -> txn:int -> ok:bool -> retries:int -> timeouts:int ->
  Data.Path.t list -> unit

(** Forget [txn] without a verdict (operator signal): free its canary
    slot and drop its start time. *)
val forget : t -> txn:int -> unit

(** Wake the breaker-parked transactions that {!admit} would now admit
    on every root (no release wakes them); returns how many. *)
val regate : t -> now:float -> Sched.t -> int

(** Combined score (max of the three EWMAs); 0 for untracked roots. *)
val score : t -> root:Data.Path.t -> float

val state_of : t -> root:Data.Path.t -> breaker_state
