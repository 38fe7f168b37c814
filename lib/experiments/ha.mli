(** §6.4 — high availability: controller fail-over.

    A steady transaction stream runs against three controllers; the lead
    controller is killed mid-stream.  The paper reports recovery within
    12.5 s — dominated by ZooKeeper's failure-detection (session) timeout —
    with no transaction submitted during recovery lost.  We measure the
    same three quantities: time until a new controller leads, time until
    it resumes committing, and the number of lost transactions. *)

type result = {
  session_timeout : float;
  kill_time : float;
  new_leader_time : float;        (** simulation time a new leader led *)
  first_commit_after : float;     (** first commit by the new leader *)
  takeover_seconds : float;       (** new_leader_time - kill_time *)
  recovery_seconds : float;       (** first_commit_after - kill_time *)
  submitted : int;
  committed : int;
  aborted : int;
  lost : int;                     (** must be 0 *)
  stats : Tropic.Stats.stats;
      (** the shard's counters and per-phase latency recorders, summed
          over the killed leader and its successor *)
  membership : string;  (** coordination membership/session counters *)
}

(** Simulation seed used when [?seed] is not given. *)
val default_seed : int

(** Submits [rate] txn/s for [duration] seconds (default 180) and kills
    the leader at [kill_at] (default 60); [quick] (default false) makes
    the defaults 60 and 20. *)
val run :
  ?seed:int -> ?quick:bool -> ?session_timeout:float -> ?rate:float ->
  ?kill_at:float -> ?duration:float -> unit -> result

val print : result -> unit
