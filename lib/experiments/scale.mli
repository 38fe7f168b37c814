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
  stats : Tropic.Controller.stats;
      (** the shard's counters and per-phase latency recorders, summed
          over every controller instance of the run *)
}

type memory_point = {
  resources : int;           (** nodes in the data model *)
  live_bytes : int;          (** live heap bytes after building it *)
  bytes_per_resource : float;
}

type result = {
  throughput : throughput_point list;
  memory : memory_point list;
  projected_resources_32gb : float;
}

(** Base seed used when [?seed] is not given; each throughput point runs
    on [hosts + seed] so different sizes stay decorrelated. *)
val default_seed : int

(** Offers 10 spawn txn/s for 120 s to 500, 2 000 and 8 000 hosts; [quick]
    (default false) drops the 8 000-host point. *)
val run : ?seed:int -> ?quick:bool -> unit -> result
val print : result -> unit
