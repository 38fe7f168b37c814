(** Declarative nemesis schedules.

    A schedule is a named list of steps; each step pairs a {!trigger}
    (when to fire) with an {!action} (what fault to inject).  Schedules
    are pure data — {!Nemesis.install} compiles them into DES processes
    against a live platform, so the same schedule replayed under the same
    simulation seed injects exactly the same faults at exactly the same
    virtual times. *)

(** Which instance a controller/replica fault hits. *)
type target =
  | Leader  (** whoever currently leads (skipped if nobody does) *)
  | Random  (** a uniformly random live instance *)

type action =
  | Crash_controller of { target : target; down_for : float }
      (** kill a TROPIC controller; restart it [down_for] seconds later *)
  | Crash_coord_replica of { target : target; down_for : float }
      (** crash a coordination replica (stable state survives); restarted
          after [down_for].  Skipped if it would break the quorum. *)
  | Partition_coord_leader of { heal_after : float }
      (** cut the coordination leader off from its peers, heal later *)
  | Fault_burst of { probability : float; lasting : float }
      (** background device-action failure probability, then back to 0 *)
  | Fail_next_device_action of string
      (** arm a one-shot failure of the named action on a random host *)
  | Hang_next_device_action of string
      (** arm a one-shot hang of the named action on a random device: the
          invocation never returns until the invoking process is killed *)
  | Crash_worker of { down_for : float }
      (** kill a random worker (abandoning any in-flight execution);
          restart it [down_for] seconds later *)
  | Power_cycle_host     (** random host: every running VM found stopped *)
  | Oob_stop_vm          (** stop a random running VM behind TROPIC's back *)
  | Oob_remove_vm        (** delete a random stopped VM behind TROPIC's back *)
  | Signal_txn of { signal : [ `Term | `Kill ]; stall : float }
      (** wait [stall] seconds, then TERM/KILL a random live transaction *)
  | Flap_device of { host : int; up_for : float; down_for : float; cycles : int }
      (** alternate compute host [host] between healthy and
          always-failing-transiently, [cycles] times *)
  | Request_storm of { count : int; gap : float }
      (** fire-and-forget burst of [count] small spawnVM requests against
          the flappable hot host, one every [gap] seconds *)
  | Crash_shard_leader of { shard : int; down_for : float }
      (** kill the named shard's current leader controller; restart it
          [down_for] seconds later.  Skipped if the shard has no leader
          or only one controller still standing. *)
  | Member_churn of { delay : float; gap : float }
      (** remove a random non-leader coordination replica from the
          ensemble configuration and immediately re-add a fresh instance
          at the same node id, inside one leader term.  [delay] seconds of
          extra egress latency are put on that node first, so the old
          incarnation's append replies are still in flight when the fresh
          learner takes over the id; the latency clears after [gap]
          seconds.  Skipped when there is no leader, a member is down, or
          the membership is below three. *)

type trigger =
  | At of float
  | Every of { start : float; period : float; until : float }
  | Random_window of { start : float; until : float; count : int }
      (** [count] firings at uniformly random times in the window, drawn
          from the simulation's seeded rng *)

type step = { trigger : trigger; action : action }

(** Which workload the runner drives while the schedule injects faults:
    the imperative spawn/stop/destroy chains, the goal-state convergence
    workload (two {!Plan} goals, the second a capacity swap that needs
    dependency ordering and a staging hop), or the cross-shard migration
    waves (spawn on one shard's host, migrate to the other shard's and
    back — every migration a 2PC transaction). *)
type workload = Chains | Converge | Migrate

type t = {
  name : string;
  workload : workload;
  shards : int;  (** resource-tree shards the platform is built with *)
  steps : step list;
}

(** {1 Preset schedules (the default sweep grid)} *)

(** All of the above, in sweep order. *)
val presets : t list

(** Look a preset up by name. *)
val find : string -> t option

val describe : t -> string

(** Latest virtual time at which the schedule can still be acting
    (last possible firing plus the action's own tail — restart delays,
    heal delays, burst durations).  The runner waits this out before its
    quiescence checks. *)
val end_time : t -> float
