(** Uniform handle over a simulated physical device.

    Workers in the physical layer drive devices only through this
    interface: invoke an action (which takes simulated time and may fail by
    injection or by precondition), or retrieve the device's current state
    as a data-model subtree (the basis of reload/repair). *)

type t

(** How invocations consume time: [`Process] sleeps for the action's
    latency (caller must be inside a {!Des.Proc} process); [`Instant]
    returns immediately (unit tests, logical-only mode). *)
type timing = [ `Process | `Instant ]

(** Classified invocation failure.  [transient] errors (offline device,
    injected transient fault) may be retried in place by the physical
    layer; permanent errors (precondition violations, injected permanent
    faults) warrant rollback. *)
type error = { reason : string; transient : bool }

val error_to_string : error -> string

(** [make] is used by the concrete device modules, not by clients. *)
val make :
  root:Data.Path.t ->
  kind:string ->
  timing:timing ->
  latency:(string -> float) ->
  rng:Random.State.t ->
  dispatch:(action:string -> args:Data.Value.t list -> (unit, string) result) ->
  export_state:(unit -> Data.Tree.node) ->
  t

(** Data-model path this device's subtree lives at. *)
val root : t -> Data.Path.t

val kind : t -> string

(** Execute one action against the device.  Sequence: online check,
    latency, fault injection, precondition check + state change.  An
    injected hang parks the calling process forever (it only unwinds if
    the process is killed). *)
val invoke :
  t -> action:string -> args:Data.Value.t list -> (unit, error) result

(** Snapshot of the device's physical state as a data-model node. *)
val export : t -> Data.Tree.node

(** Fault injector of this device. *)
val faults : t -> Fault.t

(** Power state: an offline device fails every invocation. *)
val set_online : t -> bool -> unit

(** Invocations attempted / failed (any cause). *)
val ops : t -> int

val failures : t -> int

(** Default per-action latency (seconds) used when none is supplied. *)
val default_latency : string -> float

(** {1 Argument decoding helpers for dispatch functions} *)

val str_arg : Data.Value.t list -> int -> (string, string) result
val int_arg : Data.Value.t list -> int -> (int, string) result
