(** Client session of the coordination service.

    A client owns a network node id (its session id), finds the current
    leader (following [Not_leader] hints and rotating on timeouts), keeps
    its session alive with pings, and retries commands across leader
    changes — retries are safe because the state machine deduplicates on
    [(session, req)].

    Watch events arrive asynchronously; they are surfaced both on
    {!events} and through {!await_change}, which recipes use as a wake-up
    hint before re-checking state (one-shot watches may be lost on a
    leader change, so all waiting is timeout-based). *)

type t

(** [members] seeds the leader search; the client refreshes its view from
    [Not_leader] replies as the ensemble configuration changes. *)
val connect :
  net:Types.msg Des.Net.t ->
  id:int ->
  members:int list ->
  config:Types.config ->
  ?session_timeout:float ->
  name:string ->
  unit ->
  t

val session_id : t -> int
val name : t -> string

(** The simulator the session runs on. *)
val sim : t -> Des.Sim.t

(** {1 Replicated updates} — block the calling process until the command
    commits; retried transparently across failures. *)

val create :
  t ->
  ?ephemeral:bool ->
  ?sequential:bool ->
  key:string ->
  value:string ->
  unit ->
  (string, Types.op_error) result

val write :
  t -> ?expect_version:int -> key:string -> value:string -> unit ->
  (int, Types.op_error) result

val delete :
  t -> ?expect_version:int -> key:string -> unit -> (unit, Types.op_error) result

(** ZooKeeper's [multi]: the ops commit as one replicated command, applied
    in order, all or none.  [Ok] carries one result per op; [Error e] is
    the error of the op that aborted the multi, and then none of them
    applied.  An unconditional [Op_delete] of a missing key is a no-op; a
    versioned one fails the multi.  An empty list sends nothing. *)
val multi :
  t -> Types.op list -> (Types.op_result list, Types.op_error) result

(** {1 Membership changes} — replicated like any command.  [Error
    Config_pending] means another change is in flight; retry. *)

val add_replica : t -> id:int -> (unit, Types.op_error) result
val remove_replica : t -> id:int -> (unit, Types.op_error) result

(** {1 Queries} — served by the leader from applied state. *)

val get : t -> string -> (string * int) option
val get_children : t -> string -> string list

(** The first [n] direct children in key order, each with its value, in
    one round trip. *)
val children_values : t -> string -> int -> (string * string) list

val count_children : t -> string -> int

(** Arm a one-shot watch. *)
val watch_key : t -> string -> unit

val watch_children : t -> string -> unit

(** {1 Events} *)

val events : t -> Types.watch_event Des.Channel.t

(** Wait until any watch fires or [timeout] elapses; [true] iff an event
    arrived.  Callers must re-check the condition they care about. *)
val await_change : t -> timeout:float -> bool

(** {1 Lifecycle} *)

(** Stop all client activity without telling anyone.  The session stops
    pinging, so its ephemerals expire only after the session timeout —
    exactly what a crashed controller looks like. *)
val close : t -> unit

(** Graceful shutdown: announce the departure so the leader expires the
    session's ephemerals immediately, then {!close}. *)
val disconnect : t -> unit

val closed : t -> bool
