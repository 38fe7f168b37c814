(** Cooperative processes on top of {!Sim}, implemented with effect handlers.

    A process is a plain OCaml function executed inside a deep effect
    handler.  It runs until it suspends ({!sleep}, {!suspend}, channel
    receive, …); suspensions are resumed by simulator events, so all process
    interleaving is deterministic.

    Processes can be {!kill}ed: a killed process is resumed with the
    {!Killed} exception at its current (or next) suspension point, which
    unwinds its stack and runs any [Fun.protect] finalizers — the mechanism
    behind TROPIC's KILL signal. *)

type t

exception Killed

(** A resumer completes a pending suspension exactly once; subsequent calls
    are ignored.  [Error e] resumes the process by raising [e] at the
    suspension point. *)
type 'a resumer = ('a, exn) result -> unit

(** [spawn ?name sim body] schedules a new process named [name] (default
    ["proc"]).  [body] starts running at the current simulation time (after
    pending events).  An exception escaping [body] is recorded via
    {!Sim.record_failure} under the process's name, except {!Killed}. *)
val spawn : ?name:string -> Sim.t -> (unit -> unit) -> t

(** {1 Operations callable only from inside a process} *)

(** The calling process. *)
val self : unit -> t

(** Suspend for [d] simulated seconds. *)
val sleep : float -> unit

(** Current simulation time (convenience for [Sim.now (sim_of (self ()))]). *)
val now : unit -> float

(** [suspend register] parks the process.  [register] is called immediately
    with the process and a one-shot resumer; it must arrange for the resumer
    to be called later and return a cleanup thunk, which is run if the
    suspension is aborted (e.g. the process is killed) before resumption.
    [register] must not perform effects. *)
val suspend : (t -> 'a resumer -> unit -> unit) -> 'a

(** Block until [p] finishes; its result is [Error Killed] if it was killed. *)
val await : t -> (unit, exn) result

(** {1 Operations callable from anywhere} *)

(** Request termination.  A suspended process is resumed immediately with
    {!Killed}; a running process dies at its next suspension point. *)
val kill : t -> unit

val alive : t -> bool
val name : t -> string
val sim_of : t -> Sim.t

(** [result p] is [Some r] once [p] has finished. *)
val result : t -> (unit, exn) result option

(** {1 Driving a simulation} *)

(** [run ?until ?idle sim body] spawns [body] as process ["main"] and runs
    [sim] up to the first event after which [body] has returned and
    [idle ()] holds (default: always), so nothing but background
    heartbeats is left.  A crash of [body] also stops the run (the failure
    is in {!Sim.failures}).  Otherwise the run ends when the clock would
    pass [until] (default 36 000 s).  Returns [true] iff it stopped with
    [body] returned and [idle ()] holding. *)
val run : ?until:float -> ?idle:(unit -> bool) -> Sim.t -> (unit -> unit) -> bool
