(** Deterministic discrete-event simulation core.

    A simulation owns a virtual clock and an event queue.  Events scheduled
    for the same instant fire in scheduling order (FIFO), which — together
    with the seeded random state — makes every run fully deterministic. *)

type t

(** Handle to a scheduled event, usable to cancel it. *)
type event

(** [create ?seed ()] is a fresh simulation whose clock reads 0.
    [seed] (default 42) seeds the simulation-wide random state. *)
val create : ?seed:int -> unit -> t

(** Current virtual time, in seconds. *)
val now : t -> float

(** Simulation-wide deterministic random state. *)
val rng : t -> Random.State.t

(** [at sim time fn] schedules [fn] to run at absolute [time].
    @raise Invalid_argument if [time] is in the past. *)
val at : t -> float -> (unit -> unit) -> event

(** [after sim delay fn] schedules [fn] to run [delay] seconds from now.
    A negative delay is clamped to 0. *)
val after : t -> float -> (unit -> unit) -> event

(** [cancel ev] prevents [ev] from firing and drops its closure at once,
    so what it captured can be collected before its time comes; no-op if
    already fired. *)
val cancel : event -> unit

(** [run ?until ?stop sim] executes events in order until the queue is
    empty, the clock would pass [until], or [stop ()] holds after an event
    (checked after every event; the clock then stays at that event's time
    instead of advancing to [until]).  Returns the number of events
    executed. *)
val run : ?until:float -> ?stop:(unit -> bool) -> t -> int

(** [step sim] executes the next event if any; [true] if one was run. *)
val step : t -> bool

(** Number of events executed so far. *)
val executed : t -> int

(** Number of events currently pending. *)
val pending : t -> int

(** Record an asynchronous failure (used by {!Proc} for crashed processes);
    exposed so tests and harnesses can assert that nothing crashed. *)
val record_failure : t -> string -> exn -> unit

(** Failures recorded so far, oldest first, as [(who, exn)]. *)
val failures : t -> (string * exn) list
