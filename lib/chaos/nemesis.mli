(** Compiles a {!Schedule.t} into DES processes against a live platform.

    All randomness (random targets, random-window fire times) is drawn
    from the simulation's seeded rng, so a (seed, schedule) pair replays
    the exact same faults at the exact same virtual times.

    The nemesis is safety-guarded: it never crashes the last live
    controller, never breaks the coordination quorum, and never stacks a
    second network partition on top of an unhealed one.  A firing whose
    guard fails is skipped (and traced), not deferred. *)

type env = {
  platform : Tropic.Platform.t;
  computes : (Data.Path.t * Devices.Compute.t) array;
  devices : Devices.Device.t list;  (** fault-burst targets (all kinds) *)
  targets : Data.Path.t list;
      (** device roots the workload's transactions touch: the only ones a
          hang is armed on *)
  live_txns : unit -> int list;  (** non-terminal submitted transactions *)
  trace : string -> unit;  (** one line per injected (or skipped) event *)
}

type t

(** Install the schedule: one process per step, firing per its trigger.
    Call before running the simulation (or from inside a process). *)
val install : env -> Schedule.t -> t

(** Fault events actually injected so far (skipped firings not counted). *)
val fired : t -> int

(** Names of VMs deleted behind TROPIC's back ([Oob_remove_vm]); the
    invariant checker must not expect them to be present. *)
val oob_removed : t -> string list

(** VM names submitted by [Request_storm] firings.  Fire-and-forget: the
    harness never awaits them, so their fate (committed, shed, aborted on
    capacity) is unpredictable and the quiescence check must skip them. *)
val storm_vms : t -> string list

(** Transaction ids of the storm submissions, i.e. every id whose enqueue
    the coordination service acked.  While a storm txn's {e fate} is
    unpredictable, its {e existence} is not: an acked submission must
    reach some terminal record — the acked-durable invariant. *)
val storm_txns : t -> int list
