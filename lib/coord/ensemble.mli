(** Assembles a coordination-service ensemble on a simulated network and
    hands out client sessions.

    Network node ids [0 .. replicas-1] are the boot replicas
    ([replicas] = {!Types.boot_replicas}).  Every later node — a client
    session ({!connect}) or a replica added at a fresh id
    ({!add_replica}) — takes the next id, in creation order, with no
    budget.  Membership is dynamic: the live set of replica node ids is
    {!replica_ids}, not a contiguous range. *)

type t

(** [create ?config ?stats ?gstats ?trace sim] — an ensemble of
    {!Types.boot_replicas} replicas.  Every replica instance writes
    [stats] and [gstats] (default: fresh records), so several ensembles
    can share one pair.  [trace] (default {!Trace.off}) records the
    [coord.join] / [coord.joined] / [coord.leave] membership instants. *)
val create :
  ?config:Types.config ->
  ?stats:Types.membership_stats ->
  ?gstats:Types.group_stats ->
  ?trace:Trace.t ->
  Des.Sim.t ->
  t

val sim : t -> Des.Sim.t
val net : t -> Types.msg Des.Net.t

(** Counters shared by every replica instance this ensemble ever created
    (instances come and go across {!add_replica}/{!remove_replica}):
    [create]'s [stats]. *)
val membership_stats : t -> Types.membership_stats

(** Group-commit counters, shared across instances the same way:
    [create]'s [gstats]. *)
val group_stats : t -> Types.group_stats

(** Node ids currently hosting a replica instance, sorted. *)
val replica_ids : t -> int list

(** The instance at node [i]. @raise Failure if no replica lives there. *)
val replica : t -> int -> Replica.t

(** Open a client session at the next node id. *)
val connect : t -> ?session_timeout:float -> name:string -> unit -> Client.t

(** Crash a replica: its processes die and its network port goes down.
    Stable state (term, vote, log) survives for {!restart_replica}. *)
val crash_replica : t -> int -> unit

val restart_replica : t -> int -> unit
val replica_up : t -> int -> bool

(** The current leader among live member replicas (highest term wins if
    the view is transiently split); [None] during elections. *)
val leader_id : t -> int option

(** Block the calling process until a leader exists; returns its id. *)
val await_leader : t -> int

(** The leader's applied store, for tests. @raise Failure if no leader. *)
val leader_store : t -> Store.t

(** The leader's effective membership; falls back to {!replica_ids} while
    no leader is known. *)
val members : t -> int list

(** {1 Dynamic membership}

    Both calls block the calling (simulated) process until the change
    commits, retrying through [Config_pending] windows. *)

(** [add_replica e ?id ()] boots a fresh learner instance at [id] (default:
    the next node id) and asks the leader to add it; the leader catches
    the learner up via log replay or snapshot before the configuration
    changes.  If [id] hosted a replica before, that old instance is killed
    and replaced — the re-add case.  Returns the node id. *)
val add_replica : t -> ?id:int -> unit -> int

(** [remove_replica e id] removes [id] from the replicated configuration.
    The removed instance is deliberately left running (a decommissioned
    server does not learn of its removal synchronously); crash it
    afterwards with {!crash_replica} if silence is wanted. *)
val remove_replica : t -> int -> unit
