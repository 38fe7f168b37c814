(** Synthetic hosting-provider workload (paper §6.2–6.4).

    Unlike the EC2 trace (spawn-only), the hosting workload mixes the full
    set of TCloud operations — Spawn, Start, Stop, Migrate, Destroy — with
    configurable weights.  The generator tracks which VMs exist and their
    expected state, so the emitted stream is mostly well-formed (as a real
    trace would be), and migrations stay within one hypervisor type. *)

type op =
  | Spawn of { vm : string; host : int; storage : int; mem_mb : int }
  | Start of { vm : string; host : int }
  | Stop of { vm : string; host : int }
  | Migrate of { vm : string; src : int; dst : int }
  | Destroy of { vm : string; host : int; storage : int }

type weights = {
  w_spawn : float;
  w_start : float;
  w_stop : float;
  w_migrate : float;
  w_destroy : float;
}

type config = {
  weights : weights;
  rate_per_second : float;     (** mean op arrival rate (Poisson) *)
  duration_seconds : float;
  compute_hosts : int;
  storage_hosts : int;
  hypervisor_groups : int;     (** hosts i and j are compatible iff
                                   [i mod groups = j mod groups] *)
  vm_mem_mb : int;
}

val default_config : config

(** Timestamped operation stream, increasing in time. *)
val generate : ?seed:int -> config -> (float * op) list

(** Stored-procedure call for one operation, given the deployment's path
    naming scheme. *)
val to_submission :
  host_path:(int -> string) -> storage_path:(int -> string) -> op ->
  string * Data.Value.t list

type mix = {
  n_spawn : int;
  n_start : int;
  n_stop : int;
  n_migrate : int;
  n_destroy : int;
}

val mix_of : (float * op) list -> mix
