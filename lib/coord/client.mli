(** Client session of the coordination service.

    A client owns a network node id (its session id), finds the current
    leader (following [Not_leader] hints and rotating on timeouts), keeps
    its session alive with pings, and retries commands across leader
    changes — retries are safe because the state machine deduplicates on
    [(session, req)].

    {b Ordered admission.}  A session pipelines its replicated commands,
    as a ZooKeeper session does, and the leader applies them in request
    order.  The leader answers a command it has put into its log order
    (the group-commit batch) with an [Admitted] receipt, and the result
    once it commits.  The client sends a command only once every earlier
    unanswered one holds a receipt from the node it is sending to, so the
    leader's log holds the session's commands in send order although the
    network reorders messages.  A timeout or [Not_leader] on any of them
    resends every unanswered command, oldest first, again one receipt at a
    time; so does any other move of the session's leader hint (a query or
    ping that meets a new leader), since a receipt vouches only for the
    log of the node that sent it.
    (A command answered at enqueue under the [unsafe_ack] ablation gets
    its result instead of a receipt.)  The order assumes a command
    reaches a leader within one election timeout of its predecessor's
    receipt, which holds for [Des.Net]'s latencies.

    {b Results cache.}  The store keeps only each session's {e last}
    result, so a retried command that some later command of the session
    has overtaken in applying is answered with that later command's
    result.  The blocking calls below hold every later command back until
    their own result is in, so their results are exact; {!multi_async}
    results are good for logging only.

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

(** {1 Replicated updates} — block the calling process until the command
    commits; retried transparently across failures.  Later commands of
    the session leave only once the result is in. *)

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

(** [multi_async c ops ~on_done] queues the same command without waiting:
    it leaves in request order behind the session's earlier commands,
    and later ones may follow it as soon as its receipt is in.
    [on_done] runs outside any process (it must not block) with the
    command's result, which may be a later command's cached one (see
    above), so use it for logging only; it never runs if the session
    closes first.  Event-driven: no process per request. *)
val multi_async :
  t -> Types.op list -> on_done:(Types.op_result -> unit) -> unit

(** {!multi_async} with the ops built when the command first leaves —
    once every earlier command of the session holds its receipt — so a
    caller can keep adding to a command that is still queued.  [ops ()]
    must not be empty. *)
val multi_async_lazy :
  t -> (unit -> Types.op list) -> on_done:(Types.op_result -> unit) -> unit

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
    exactly what a crashed controller looks like.  Unanswered commands are
    dropped; their blocked callers raise [Des.Proc.Killed]. *)
val close : t -> unit

(** Graceful shutdown: announce the departure so the leader expires the
    session's ephemerals immediately, then {!close}. *)
val disconnect : t -> unit

val closed : t -> bool
