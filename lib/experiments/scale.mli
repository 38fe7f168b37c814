(** §6.1 scalability: throughput vs. resource count, and the memory
    footprint of the data model.

    The paper finds transaction throughput constant as resources and
    transactions scale up (the bottleneck is coordination I/O, whose cost
    is independent of the tree size), with physical memory for the data
    model the limiting factor — topping out around 2 M VMs on their 32 GB
    controllers. *)

type throughput_point = {
  hosts : int;
  offered : int;
  committed : int;
  throughput_per_s : float;
  median_latency : float;
  stats : Tropic.Stats.stats;
      (** the shard's counters and per-phase latency recorders, summed
          over every controller instance of the run *)
}

type memory_point = {
  resources : int;           (** nodes in the data model *)
  live_bytes : int;          (** live heap bytes after building it *)
  bytes_per_resource : float;
}

(** Live heap of a running platform at a fixed resource count. *)
type history_point = {
  txns : int;  (** terminal so far *)
  aborted : int;  (** of which aborted *)
  history_live_bytes : int;  (** live heap after a full major GC *)
  samples_bytes : int;
      (** of which the shard's stats record, whose latency recorders keep
          every sample *)
}

type history = {
  points : history_point list;
      (** after 1k, 4k and 16k terminal txns on 16 hosts (16k dropped when
          quick) *)
  slope_bytes_per_1k_txns : float;  (** first to last point *)
  state_slope_bytes_per_1k_txns : float;  (** the same, less the samples *)
}

type result = {
  throughput : throughput_point list;
  memory : memory_point list;
  projected_resources_32gb : float;
  toggles : history;  (** sessions toggle their own VM: every txn commits *)
  with_aborts : history;
      (** each toggle pair followed by a spawn that violates its host's
          memory: a third of the txns abort *)
}

(** Base seed used when [?seed] is not given; each throughput point runs
    on [hosts + seed] so different sizes stay decorrelated. *)
val default_seed : int

(** Offers 10 spawn txn/s for 120 s to 500, 2 000 and 8 000 hosts; [quick]
    (default false) drops the 8 000-host point and the 16k-txn history
    points. *)
val run : ?seed:int -> ?quick:bool -> unit -> result
val print : result -> unit
