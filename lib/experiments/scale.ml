type throughput_point = {
  hosts : int;
  offered : int;
  committed : int;
  throughput_per_s : float;
  median_latency : float;
  stats : Tropic.Controller.stats;
}

type memory_point = {
  resources : int;
  live_bytes : int;
  bytes_per_resource : float;
}

type result = {
  throughput : throughput_point list;
  memory : memory_point list;
  projected_resources_32gb : float;
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

let default_seed = 5

let run ?(seed = default_seed) ?(quick = false) () =
  let host_counts = if quick then [ 500; 2_000 ] else [ 500; 2_000; 8_000 ] in
  let throughput = List.map (throughput_point ~seed) host_counts in
  let memory = List.map memory_point [ 250; 1_000; 4_000 ] in
  let per_resource =
    match List.rev memory with
    | largest :: _ -> largest.bytes_per_resource
    | [] -> Float.nan
  in
  {
    throughput;
    memory;
    projected_resources_32gb = 32. *. 1024. ** 3. /. per_resource;
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
        (Tropic.Controller.phase_summary p.stats))
    r.throughput;
  List.iter
    (fun m ->
      Printf.printf "resources=%8d  live=%9d bytes  (%.0f B/resource)\n"
        m.resources m.live_bytes m.bytes_per_resource)
    r.memory;
  Printf.printf
    "projected capacity of a 32 GB controller: %.1f M resources (paper: ~2 M VMs)\n%!"
    (r.projected_resources_32gb /. 1e6)
