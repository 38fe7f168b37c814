type config = {
  multiplier : int;
  hosts : int;
  window_start : int;
  duration : int;
  bucket : float;
  drain : float;
  seed : int;
}

let default_config =
  {
    multiplier = 1;
    hosts = 12_500;
    window_start = 0;
    duration = Workload.Ec2.duration;
    bucket = 60.;
    drain = 600.;
    seed = 42;
  }

let quick_config =
  {
    default_config with
    hosts = 2_000;
    window_start = 2_400;
    duration = 600;
    bucket = 30.;
    drain = 300.;
  }

type result = {
  cfg : config;
  offered : int;
  committed : int;
  aborted : int;
  failed : int;
  lost : int;
  cpu_util : Metrics.Series.t;
  coord_util : Metrics.Series.t;
  latency : Metrics.Cdf.t;
  sim_events : int;
  wall_seconds : float;
  stats : Tropic.Controller.stats;
}

(* The paper's logical-only deployment (§5, §6.1): 8 VM slots per host,
   4 compute hosts per storage host. *)
let deployment_size cfg =
  {
    Tcloud.Setup.paper_scale with
    Tcloud.Setup.compute_hosts = cfg.hosts;
    storage_hosts = max 1 (cfg.hosts / 4);
  }

let platform_spec =
  {
    Tropic.Platform.default_spec with
    Tropic.Platform.mode = Tropic.Platform.Logical_only 0.005;
    controller_config = Tcloud.Setup.controller_config;
    workers = 8;
    submit_clients = 16;
  }

let run cfg =
  let trace =
    Workload.Ec2.scale (Workload.Ec2.generate ~seed:cfg.seed ()) cfg.multiplier
  in
  let sim = Des.Sim.create ~seed:cfg.seed () in
  let inventory = Tcloud.Setup.build (deployment_size cfg) in
  let platform =
    Tropic.Platform.create platform_spec inventory.Tcloud.Setup.env
      ~initial_tree:inventory.Tcloud.Setup.tree
      ~devices:inventory.Tcloud.Setup.devices sim
  in
  let horizon = float_of_int cfg.duration +. cfg.drain in
  let cpu_util =
    Metrics.Gauge.utilization_series sim ~bucket:cfg.bucket ~duration:horizon
      ~busy:(fun () -> Tropic.Platform.controller_cpu_busy platform)
  in
  let coord_util =
    Metrics.Gauge.utilization_series sim ~bucket:cfg.bucket ~duration:horizon
      ~busy:(fun () -> Tropic.Platform.coord_io_busy platform)
  in
  let latency = Metrics.Cdf.create () in
  let offered = ref 0 in
  let committed = ref 0 and aborted = ref 0 and failed = ref 0 in
  let lost = ref 0 in
  let rng = Random.State.make [| cfg.seed + 1 |] in
  let storage_hosts = (deployment_size cfg).Tcloud.Setup.storage_hosts in
  let vm_counter = ref 0 in
  let requests = ref [] in
  let spawn_one () =
    incr vm_counter;
    incr offered;
    let vm = Printf.sprintf "ec2-%07d" !vm_counter in
    let host = Random.State.int rng cfg.hosts in
    let args =
      Tcloud.Procs.spawn_vm_args ~vm ~template:"base.img" ~mem_mb:1024
        ~storage:(Data.Path.to_string (Tcloud.Setup.storage_path (host mod storage_hosts)))
        ~host:(Data.Path.to_string (Tcloud.Setup.compute_path host))
    in
    let arrival = Des.Proc.now () in
    requests :=
      Des.Proc.spawn ~name:vm sim (fun () ->
           let id = Tropic.Platform.submit platform ~proc:"spawnVM" ~args in
           match Tropic.Platform.await platform id with
           | Tropic.Txn.Committed ->
             incr committed;
             Metrics.Cdf.add latency (Des.Proc.now () -. arrival)
           | Tropic.Txn.Aborted _ ->
             incr aborted;
             Metrics.Cdf.add latency (Des.Proc.now () -. arrival)
           | Tropic.Txn.Failed _ -> incr failed
           | Tropic.Txn.Initialized | Tropic.Txn.Accepted | Tropic.Txn.Deferred
           | Tropic.Txn.Started ->
             () (* unreachable: await only returns terminal states *))
      :: !requests
  in
  let generator () =
    for second = 0 to cfg.duration - 1 do
      let launches = trace.(cfg.window_start + second) in
      if launches = 0 then Des.Proc.sleep 1.0
      else begin
        let gap = 1.0 /. float_of_int launches in
        for _ = 1 to launches do
          spawn_one ();
          Des.Proc.sleep gap
        done
      end
    done;
    List.iter (fun p -> ignore (Des.Proc.await p)) !requests;
    (* Let the utilization bucket the drain ended in close. *)
    let edge = cfg.bucket *. Float.ceil (Des.Proc.now () /. cfg.bucket) in
    Des.Proc.sleep (edge -. Des.Proc.now ())
  in
  let (), wall_seconds =
    Common.time_it (fun () -> Common.run_scenario platform generator)
  in
  (* Any spawned awaiter that never resolved counts as lost. *)
  let resolved = !committed + !aborted + !failed in
  lost := !offered - resolved;
  {
    cfg;
    offered = !offered;
    committed = !committed;
    aborted = !aborted;
    failed = !failed;
    lost = !lost;
    cpu_util;
    coord_util;
    latency;
    sim_events = Des.Sim.executed sim;
    wall_seconds;
    stats = Tropic.Platform.shard_stats platform 0;
  }

(* ------------------------------------------------------------------ *)
(* Printing *)

let fig3_series ?(seed = 42) ~bucket () =
  let trace = Workload.Ec2.generate ~seed () in
  let series =
    Metrics.Series.create ~bucket ~duration:(float_of_int Workload.Ec2.duration)
  in
  Array.iteri
    (fun t count ->
      Metrics.Series.add ~v:(float_of_int count) series (float_of_int t))
    trace;
  series

let print_fig3 () =
  Common.section "Figure 3: VMs launched per second (EC2 workload)";
  let trace = Workload.Ec2.generate () in
  Format.printf "workload: %a@." Workload.Ec2.pp_stats (Workload.Ec2.stats trace);
  let series = fig3_series ~bucket:60. () in
  (* Per-minute average launches/second, like reading Fig. 3 smoothed. *)
  let per_second =
    Metrics.Series.create ~bucket:60.
      ~duration:(float_of_int Workload.Ec2.duration)
  in
  List.iteri
    (fun i (_, v) -> Metrics.Series.set_bucket per_second i (v /. 60.))
    (Metrics.Series.rows series);
  print_string
    (Metrics.Series.render ~label:"VMs/s (min avg)" ~time_unit:`Hours per_second)

let print_result r =
  Printf.printf
    "%dx: offered=%d committed=%d aborted=%d failed=%d lost=%d | median=%.3fs p90=%.3fs p99=%.3fs max=%.1fs | peak CPU=%.1f%% peak coordIO=%.1f%% | %d events, %.1fs wall\n%!"
    r.cfg.multiplier r.offered r.committed r.aborted r.failed r.lost
    (Metrics.Cdf.quantile r.latency 0.5)
    (Metrics.Cdf.quantile r.latency 0.9)
    (Metrics.Cdf.quantile r.latency 0.99)
    (Metrics.Cdf.max_value r.latency)
    (100. *. Metrics.Series.max_value r.cpu_util)
    (100. *. Metrics.Series.max_value r.coord_util)
    r.sim_events r.wall_seconds;
  Printf.printf "    %s\n    %s\n    %s\n%!" (Common.sched_summary r.stats)
    (Common.robust_summary r.stats)
    (Tropic.Controller.phase_summary r.stats)

let print_fig4_fig5 ?(multipliers = [ 1; 2; 3; 4; 5 ]) cfg =
  Common.section
    (Printf.sprintf
       "Figures 4 & 5: controller CPU and txn latency, EC2 x{1..%d} (%d hosts, %ds window)"
       (List.fold_left max 1 multipliers)
       cfg.hosts cfg.duration);
  let results =
    List.map (fun m -> run { cfg with multiplier = m }) multipliers
  in
  List.iter print_result results;
  Common.section "Figure 4 detail: CPU utilization per bucket";
  List.iter
    (fun r ->
      Printf.printf "-- %dx EC2 --\n" r.cfg.multiplier;
      print_string
        (Metrics.Series.render ~label:"CPU util" ~time_unit:`Hours r.cpu_util))
    results;
  Common.section "Figure 5 detail: latency CDFs";
  List.iter
    (fun r ->
      print_string
        (Metrics.Cdf.render
           ~label:(Printf.sprintf "%dx EC2 latency (s)" r.cfg.multiplier)
           r.latency))
    results
