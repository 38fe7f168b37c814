(** Deterministic per-transaction span tracing.

    A [Trace.t] records the lifecycle of every transaction as a tree of
    spans stamped with the simulation clock: controller admission,
    scheduling transitions, lock waits (with the blocking holder), logical
    simulation, per-action physical replay including retries and
    backoffs, undo chains, and watchdog/health escalations.  The recorder
    is purely in-memory and deterministic — the same seed produces the
    same trace, byte for byte — which makes traces a test surface as well
    as an observability tool.

    Spans are keyed by transaction id.  Each transaction has at most one
    {e root} span (category ["txn"]); all other spans parent onto the
    innermost open span of the same transaction at the time they begin, so
    emitters never thread parent ids around.  [close_all] force-closes
    whatever is still open for a transaction when the controller finalizes
    it, guaranteeing balance even when a worker was killed mid-replay.

    Tracing is off by value, not by type: every emitter holds a plain
    [t] and calls straight through, and {!off} is the recorder that keeps
    nothing. *)

type t

type span = {
  sid : int;  (** unique, monotone in start time *)
  txn : int;  (** owning transaction id (0 = platform/system) *)
  cat : string;
  name : string;
  parent : int option;  (** sid of the enclosing span, if any *)
  start_ts : float;  (** sim seconds *)
  mutable end_ts : float option;
  mutable attrs : (string * string) list;  (** in emission order *)
}

type event = {
  eid : int;
  etxn : int;
  ecat : string;
  ename : string;
  ts : float;
  eattrs : (string * string) list;
}

val create : sim:Des.Sim.t -> unit -> t

val off : t
(** The disabled recorder: it records nothing.  [begin_span] and
    [fresh_lane] return an id the other calls ignore, [end_named] returns
    [None], and [spans], [events] and [Check.validate] are empty. *)

val begin_span :
  t ->
  txn:int ->
  ?lane:int ->
  cat:string ->
  name:string ->
  ?attrs:(string * string) list ->
  unit ->
  int
(** Opens a span; returns its sid.  Parent = innermost open span of the
    same transaction {e and lane} (None for the first).  [lane] defaults
    to 0, the controller lane.  A concurrent executor (e.g. a worker
    replaying a transaction that was re-dispatched after a controller
    fail-over) should open its spans under a [fresh_lane] so that two
    executors of the same transaction never parent onto each other's open
    spans; a non-zero lane with no open span of its own parents onto the
    innermost lane-0 span (normally the txn root). *)

val fresh_lane : t -> int
(** A lane id never used before in this trace.  Lane ids share the span
    id counter, which is harmless: normalized dumps renumber. *)

val end_span : t -> ?attrs:(string * string) list -> int -> unit
(** Closes a span (idempotent: the first close wins; later calls only
    append attributes if the span is somehow still open — otherwise they
    are ignored entirely). *)

val end_named :
  t -> txn:int -> name:string -> ?attrs:(string * string) list -> unit ->
  float option
(** Closes the innermost open span with the given name for [txn], if any,
    returning its duration.  Used to close park spans (lock-wait,
    breaker-park) whose closing site is far from their opening site. *)

val close_all :
  t -> txn:int -> ?attrs:(string * string) list -> unit -> unit
(** Force-closes every open span of [txn] at the current sim time.
    [attrs] are appended to the root (category ["txn"]) span; other
    stragglers get [closed_by=finalize].  Called when the controller
    finalizes a transaction, so traces are balanced at quiescence even if
    workers were killed mid-flight. *)

val instant :
  t ->
  txn:int ->
  cat:string ->
  name:string ->
  ?attrs:(string * string) list ->
  unit ->
  unit
(** Records a zero-duration event (sched transitions, watchdog/health
    escalations, admission sheds). *)

val spans : t -> span list
(** All spans in creation (= start-time) order. *)

val events : t -> event list
(** All instant events in creation order. *)

val span_count : t -> int

val attr : span -> string -> string option
(** First binding of the attribute, if present. *)

val to_chrome_json : t -> string
(** Chrome [trace_event] JSON (an array of "X"/"i"/"M" events, ts in
    microseconds, pid 1, tid = txn id) loadable in about://tracing or
    Perfetto. *)

val to_normalized_lines : t -> string list
(** Stable one-line-per-item textual form (spans and events interleaved in
    creation order, ids renumbered from 1) used for golden-trace tests and
    chaos reproducer dumps. *)

val to_normalized_string : t -> string

module Check : sig
  (** Structural lifecycle invariants over a finished trace. *)

  type error = { check : string; ctxn : int; detail : string }

  val error_to_string : error -> string

  val validate : t -> error list
  (** Validates, per trace:
      - {b balanced}: every span has an end timestamp;
      - {b duration}: [end_ts >= start_ts];
      - {b monotone}: items were recorded in non-decreasing sim time;
      - {b parent}: parents exist, belong to the same transaction, and
        contain their children in time;
      - {b root}: at most one ["txn"]-category root span per transaction;
      - {b committed lifecycle}: a root that ended in state [committed]
        has at least one replay span with outcome [committed] whose ok'd
        action spans cover the whole xlog, and no undo spans under the
        committed execution or outside any replay span (a duplicate
        execution dispatched around a fail-over may lose the race, abort
        on the already-applied state and undo its own progress);
      - {b aborted lifecycle}: every replay span with outcome [aborted]
        has an undo child whose per-action undo spans run in exact
        reverse order of the ok'd replayed actions. *)
end
