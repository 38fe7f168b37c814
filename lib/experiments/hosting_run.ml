type op_stats = {
  op_name : string;
  submitted : int;
  committed : int;
  aborted : int;
  latency : Metrics.Cdf.t;
}

type result = {
  duration : float;
  ops : op_stats list;
  deferrals : int;
  violations : int;
  layers_consistent : bool;
  stats : Tropic.Stats.stats;
  membership : string;
  trace : Trace.t option;
}

let op_names = [ "spawnVM"; "startVM"; "stopVM"; "migrateVM"; "destroyVM" ]

let default_seed = 97

(* Offered load, op/s. *)
let rate = 1.0

let run ?(seed = default_seed) ?(quick = false) ?(record_trace = false) () =
  let duration = if quick then 120. else 300. in
  let sim = Des.Sim.create ~seed () in
  let tracer = if record_trace then Some (Trace.create ~sim ()) else None in
  let size =
    {
      Tcloud.Setup.small with
      Tcloud.Setup.compute_hosts = 16;
      storage_hosts = 4;
      storage_capacity_mb = 50_000_000;
    }
  in
  let inv = Tcloud.Setup.build ~rng:(Des.Sim.rng sim) size in
  let platform =
    Tropic.Platform.create
      {
        Tropic.Platform.default_spec with
        Tropic.Platform.workers = 4;
        controller_config = Tcloud.Setup.controller_config;
        trace = tracer;
      }
      inv.Tcloud.Setup.env ~initial_tree:inv.Tcloud.Setup.tree
      ~devices:inv.Tcloud.Setup.devices sim
  in
  let stats =
    List.map
      (fun op_name ->
        ( op_name,
          ref 0,
          ref 0,
          ref 0,
          Metrics.Cdf.create () ))
      op_names
  in
  let find name =
    List.find (fun (n, _, _, _, _) -> String.equal n name) stats
  in
  let workload_config =
    {
      Workload.Hosting.default_config with
      Workload.Hosting.rate_per_second = rate;
      duration_seconds = duration;
      compute_hosts = size.Tcloud.Setup.compute_hosts;
      storage_hosts = size.Tcloud.Setup.storage_hosts;
      hypervisor_groups = List.length size.Tcloud.Setup.hypervisors;
      vm_mem_mb = 1024;
    }
  in
  let ops = Workload.Hosting.generate ~seed workload_config in
  Common.run_scenario platform (fun () ->
      (* Ops are issued in trace order; each is awaited so the generated
         stream stays well-formed (a start only follows its spawn). *)
      List.iter
        (fun (at, op) ->
          let now = Des.Proc.now () in
          if at > now then Des.Proc.sleep (at -. now);
          let proc, args =
            Workload.Hosting.to_submission
              ~host_path:(fun i ->
                Data.Path.to_string (Tcloud.Setup.compute_path i))
              ~storage_path:(fun i ->
                Data.Path.to_string (Tcloud.Setup.storage_path i))
              op
          in
          let _, submitted, committed, aborted, latency = find proc in
          incr submitted;
          let t0 = Des.Proc.now () in
          (match Tropic.Platform.run_txn platform ~proc ~args with
           | Tropic.Txn.Committed ->
             incr committed;
             Metrics.Cdf.add latency (Des.Proc.now () -. t0)
           | Tropic.Txn.Aborted _ -> incr aborted
           | Tropic.Txn.Failed _ | Tropic.Txn.Initialized | Tropic.Txn.Accepted
           | Tropic.Txn.Deferred | Tropic.Txn.Started ->
             ()))
        ops);
  let controller_stats =
    match Tropic.Platform.leader_controller platform with
    | Some c -> Tropic.Controller.stats c
    | None -> failwith "no leader at end of run"
  in
  {
    duration;
    ops =
      List.map
        (fun (op_name, submitted, committed, aborted, latency) ->
          { op_name; submitted = !submitted; committed = !committed;
            aborted = !aborted; latency })
        stats;
    deferrals = controller_stats.Tropic.Controller.deferrals;
    violations = controller_stats.Tropic.Controller.violations;
    layers_consistent = Common.layers_consistent platform inv;
    stats = Tropic.Platform.shard_stats platform 0;
    membership = Common.membership_summary platform;
    trace = tracer;
  }

let print r =
  Common.section
    (Printf.sprintf
       "Hosting workload (TCloud deployment): %.0f s at %.1f op/s" r.duration
       rate);
  Printf.printf "%-10s %10s %10s %8s %12s %12s\n" "operation" "submitted"
    "committed" "aborted" "median (s)" "p95 (s)";
  List.iter
    (fun s ->
      let q p =
        if Metrics.Cdf.count s.latency = 0 then Float.nan
        else Metrics.Cdf.quantile s.latency p
      in
      Printf.printf "%-10s %10d %10d %8d %12.2f %12.2f\n" s.op_name s.submitted
        s.committed s.aborted (q 0.5) (q 0.95))
    r.ops;
  Printf.printf
    "lock-conflict deferrals: %d; constraint violations: %d; layers consistent at end: %b\n"
    r.deferrals r.violations r.layers_consistent;
  Printf.printf "%s\n%s\n%s\n%s\n%!" (Common.sched_summary r.stats)
    (Common.robust_summary r.stats)
    (Common.phase_summary r.stats)
    r.membership
