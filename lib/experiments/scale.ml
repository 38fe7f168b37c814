type throughput_point = {
  hosts : int;
  offered : int;
  committed : int;
  throughput_per_s : float;
  median_latency : float;
  stats : Tropic.Stats.stats;
}

type memory_point = {
  resources : int;
  live_bytes : int;
  bytes_per_resource : float;
}

type history_point = {
  txns : int;
  aborted : int;
  history_live_bytes : int;
  samples_bytes : int;
}

type history = {
  points : history_point list;
  slope_bytes_per_1k_txns : float;
  state_slope_bytes_per_1k_txns : float;
}

type result = {
  throughput : throughput_point list;
  memory : memory_point list;
  projected_resources_32gb : float;
  toggles : history;
  with_aborts : history;
}

(* Constant offered load, [rate] spawns/s for [duration] s, against
   deployments of increasing size: the throughput and latency should not
   depend on the resource count. *)
let rate = 10.
let duration = 120.

let throughput_point ~seed hosts =
  let cfg =
    {
      Perf.default_config with
      Perf.hosts;
      duration = int_of_float duration;
      window_start = 0;
      bucket = 30.;
      drain = 120.;
    }
  in
  (* Replace the EC2 trace with a flat one at [rate]: reuse the perf runner
     by scaling time windows is messy, so drive directly. *)
  let sim = Des.Sim.create ~seed:(hosts + seed) () in
  let size = Perf.deployment_size cfg in
  let inv = Tcloud.Setup.build size in
  let platform =
    Tropic.Platform.create Perf.platform_spec inv.Tcloud.Setup.env
      ~initial_tree:inv.Tcloud.Setup.tree ~devices:inv.Tcloud.Setup.devices sim
  in
  let latency = Metrics.Cdf.create () in
  let committed = ref 0 and offered = ref 0 in
  let first_commit = ref Float.nan and last_commit = ref 0. in
  let rng = Random.State.make [| 17 |] in
  Common.run_scenario platform (fun () ->
      let gap = 1. /. rate in
      let count = int_of_float (duration *. rate) in
      for k = 0 to count - 1 do
        incr offered;
        let host = Random.State.int rng hosts in
        let args =
          Tcloud.Procs.spawn_vm_args
            ~vm:(Printf.sprintf "sc%06d" k)
            ~template:"base.img" ~mem_mb:1024
            ~storage:
              (Data.Path.to_string
                 (Tcloud.Setup.storage_path
                    (host mod size.Tcloud.Setup.storage_hosts)))
            ~host:(Data.Path.to_string (Tcloud.Setup.compute_path host))
        in
        let arrival = Des.Proc.now () in
        ignore
          (Des.Proc.spawn ~name:(Printf.sprintf "sc-%d" k) sim (fun () ->
               let id = Tropic.Platform.submit platform ~proc:"spawnVM" ~args in
               match Tropic.Platform.await platform id with
               | Tropic.Txn.Committed ->
                 incr committed;
                 let t = Des.Proc.now () in
                 if Float.is_nan !first_commit then first_commit := t;
                 last_commit := t;
                 Metrics.Cdf.add latency (t -. arrival)
               | _ -> ()));
        Des.Proc.sleep gap
      done);
  let span = Float.max 1e-9 (!last_commit -. !first_commit) in
  {
    hosts;
    offered = !offered;
    committed = !committed;
    throughput_per_s = float_of_int (!committed - 1) /. span;
    median_latency =
      (if Metrics.Cdf.count latency = 0 then Float.nan
       else Metrics.Cdf.quantile latency 0.5);
    stats = Tropic.Platform.shard_stats platform 0;
  }

let live_bytes () =
  Gc.full_major ();
  let stat = Gc.stat () in
  stat.Gc.live_words * (Sys.word_size / 8)

let memory_point hosts =
  let before = live_bytes () in
  let size =
    {
      Tcloud.Setup.paper_scale with
      Tcloud.Setup.compute_hosts = hosts;
      storage_hosts = max 1 (hosts / 4);
      prepopulated_vms_per_host = 8;
    }
  in
  let inv = Tcloud.Setup.build size in
  let resources = Data.Tree.size inv.Tcloud.Setup.tree in
  let after = live_bytes () in
  (* Keep the inventory alive until after the measurement. *)
  let live = after - before in
  ignore (Sys.opaque_identity inv);
  {
    resources;
    live_bytes = live;
    bytes_per_resource = float_of_int live /. float_of_int resources;
  }

(* §6.1 on a running platform: 16 closed-loop sessions toggle their own
   VM on a fixed 16-host inventory, so no transaction creates a resource,
   and the live heap is read after each count of terminal transactions.
   With [aborts], each toggle pair is followed by a spawn that violates
   its host's memory, so a third of the transactions abort.  Memory set by
   resources, not by load, is a flat line once the latency samples the
   shard keeps for its percentiles (one per simulate and per replay) are
   set apart. *)
let history_memory ~seed ~aborts counts =
  let sessions = 16 in
  let size =
    {
      Tcloud.Setup.small with
      Tcloud.Setup.compute_hosts = sessions;
      prepopulated_vms_per_host = 1;
    }
  in
  let spec =
    {
      Tropic.Platform.default_spec with
      Tropic.Platform.controllers = 1;
      workers = 4;
      mode = Tropic.Platform.Logical_only 0.002;
      coord_config =
        {
          Coord.Types.default_config with
          Coord.Types.group_commit = true;
          op_service_time = 0.005;
          group_timeout = 0.001;
        };
      controller_config = Tcloud.Setup.controller_config;
      submit_clients = sessions;
    }
  in
  let sim = Des.Sim.create ~seed () in
  let inv = Tcloud.Setup.build ~timing:`Instant ~rng:(Des.Sim.rng sim) size in
  let platform =
    Tropic.Platform.create spec inv.Tcloud.Setup.env
      ~initial_tree:inv.Tcloud.Setup.tree ~devices:inv.Tcloud.Setup.devices sim
  in
  let terminal = ref 0 and aborted = ref 0 and points = ref [] in
  Common.run_scenario platform (fun () ->
      List.iter
        (fun target ->
          let session h =
            Des.Proc.spawn
              ~name:(Printf.sprintf "scale-session-%d" h)
              sim
              (fun () ->
                let host =
                  Data.Path.to_string (Tcloud.Setup.compute_path h)
                and storage =
                  Data.Path.to_string
                    (Tcloud.Setup.storage_path (h mod size.Tcloud.Setup.storage_hosts))
                and vm = Tcloud.Setup.prepop_vm_name ~host:h ~index:0 in
                let run proc args =
                  (match Tropic.Platform.run_txn platform ~proc ~args with
                   | Tropic.Txn.Aborted _ -> incr aborted
                   | _ -> ());
                  incr terminal
                in
                while !terminal < target do
                  run "startVM" (Tcloud.Procs.start_vm_args ~host ~vm);
                  run "stopVM" (Tcloud.Procs.stop_vm_args ~host ~vm);
                  if aborts then
                    run "spawnVM"
                      (Tcloud.Procs.spawn_vm_args ~vm:"oversized"
                         ~template:"base.img"
                         ~mem_mb:(size.Tcloud.Setup.host_mem_mb + 1)
                         ~storage ~host)
                done)
          in
          List.iter
            (fun p -> ignore (Des.Proc.await p))
            (List.init sessions session);
          let live = live_bytes () in
          let samples =
            Obj.reachable_words
              (Obj.repr (Tropic.Platform.shard_stats platform 0))
            * (Sys.word_size / 8)
          in
          points :=
            {
              txns = !terminal;
              aborted = !aborted;
              history_live_bytes = live;
              samples_bytes = samples;
            }
            :: !points)
        counts);
  let points = List.rev !points in
  let per_1k f =
    match (points, List.rev points) with
    | first :: _, last :: _ when last.txns > first.txns ->
      float_of_int (f last - f first) *. 1000. /. float_of_int (last.txns - first.txns)
    | _ -> Float.nan
  in
  {
    points;
    slope_bytes_per_1k_txns = per_1k (fun p -> p.history_live_bytes);
    state_slope_bytes_per_1k_txns =
      per_1k (fun p -> p.history_live_bytes - p.samples_bytes);
  }

let default_seed = 5

let run ?(seed = default_seed) ?(quick = false) () =
  let memory = List.map memory_point [ 250; 1_000; 4_000 ] in
  let per_resource =
    match List.rev memory with
    | largest :: _ -> largest.bytes_per_resource
    | [] -> Float.nan
  in
  let counts = if quick then [ 1_000; 4_000 ] else [ 1_000; 4_000; 16_000 ] in
  let toggles = history_memory ~seed ~aborts:false counts in
  let with_aborts = history_memory ~seed ~aborts:true counts in
  (* After the histories: a throughput point holds its shard's stats, which
     the histories' live-heap readings would otherwise count. *)
  let host_counts = if quick then [ 500; 2_000 ] else [ 500; 2_000; 8_000 ] in
  let throughput = List.map (throughput_point ~seed) host_counts in
  {
    throughput;
    memory;
    projected_resources_32gb = 32. *. 1024. ** 3. /. per_resource;
    toggles;
    with_aborts;
  }

let print r =
  Common.section "§6.1 Scalability: throughput and memory vs resource count";
  List.iter
    (fun p ->
      Printf.printf
        "hosts=%6d  offered=%d committed=%d  throughput=%.2f txn/s  median=%.3f s  %s | %s | %s\n"
        p.hosts p.offered p.committed p.throughput_per_s p.median_latency
        (Common.sched_summary p.stats)
        (Common.robust_summary p.stats)
        (Common.phase_summary p.stats))
    r.throughput;
  List.iter
    (fun m ->
      Printf.printf "resources=%8d  live=%9d bytes  (%.0f B/resource)\n"
        m.resources m.live_bytes m.bytes_per_resource)
    r.memory;
  Printf.printf
    "projected capacity of a 32 GB controller: %.1f M resources (paper: ~2 M VMs)\n"
    (r.projected_resources_32gb /. 1e6);
  let history label h =
    List.iter
      (fun p ->
        Printf.printf
          "running, 16 hosts, %s, after %6d txns (%5d aborted): live=%9d bytes, latency samples=%8d bytes\n"
          label p.txns p.aborted p.history_live_bytes p.samples_bytes)
      h.points;
    Printf.printf
      "live-heap slope at fixed resources, %s: %.1f KB per 1k txns, %.1f KB without the latency samples\n%!"
      label
      (h.slope_bytes_per_1k_txns /. 1024.)
      (h.state_slope_bytes_per_1k_txns /. 1024.)
  in
  history "toggles" r.toggles;
  history "a third aborted" r.with_aborts
