(** Fault injection for simulated devices.

    Supports the error scenarios of the paper's robustness evaluation
    (§6.3) plus the stall scenarios of the watchdog layer: deterministic
    one-shot failures of a named action (e.g. "the last step of VM spawning
    fails"), persistent failures, hang injection (an invocation that never
    returns), and a background random failure probability.

    Every injected failure carries a {!severity}: [Transient] errors model
    environmental blips the physical layer may retry in place; [Permanent]
    errors model hard faults that warrant rollback.  Planned failures
    default to [Permanent] (the paper's operator-style error scenarios);
    background random failures are always [Transient]. *)

type severity = Transient | Permanent

(** Fate of one invocation: proceed, fail with a classified reason, or
    never return. *)
type verdict = Pass | Fail of severity * string | Hang

type t

val create : unit -> t

(** The next [count] (default 1) invocations of [action] fail. *)
val fail_next : ?count:int -> ?severity:severity -> t -> action:string -> unit

(** Every invocation of [action] fails until {!clear}. *)
val fail_always : ?severity:severity -> t -> action:string -> unit

(** The next [count] (default 1) invocations of [action] hang forever
    (until the calling process is killed, e.g. by the physical layer's
    per-action deadline). *)
val hang_next : ?count:int -> t -> action:string -> unit

val clear : t -> action:string -> unit

(** Background failure probability applied to every action.  Values outside
    [\[0, 1\]] are clamped; NaN is rejected. *)
val set_probability : t -> float -> (unit, string) result

(** Current background failure probability. *)
val probability : t -> float

(** [check t ~rng ~action] decides the fate of one invocation. *)
val check : t -> rng:Random.State.t -> action:string -> verdict

(** Injected failures so far (hangs included). *)
val injected : t -> int

(** Injected hangs so far. *)
val hangs : t -> int
