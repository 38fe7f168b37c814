(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus Bechamel micro-benchmarks of the engine operations that
   back the §6.2/§6.3 measurements.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- micro        # Bechamel micro-benchmarks
     dune exec bench/main.exe -- sched        # contention bench -> BENCH_sched.json
     dune exec bench/main.exe -- overload     # shed-vs-queue -> BENCH_overload.json
     dune exec bench/main.exe -- shard        # shard scaling -> BENCH_shard.json
     dune exec bench/main.exe -- throughput   # saturation + group commit -> BENCH_throughput.json
     dune exec bench/main.exe -- table1|fig3|fig4|fig5|safety|robustness|
                                 ha|hosting|scale|ablation
   TROPIC_BENCH_QUICK=1 shrinks the long runs. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks *)

let host0 = Data.Path.to_string (Tcloud.Setup.compute_path 0)
let host2 = Data.Path.to_string (Tcloud.Setup.compute_path 2)
let storage0 = Data.Path.to_string (Tcloud.Setup.storage_path 0)

let micro_tests () =
  let size =
    { Tcloud.Setup.small with Tcloud.Setup.prepopulated_vms_per_host = 2 }
  in
  let inv = Tcloud.Setup.build size in
  let env = inv.Tcloud.Setup.env in
  let tree = inv.Tcloud.Setup.tree in
  let bare_env =
    let env = Tropic.Dsl.create_env () in
    Tcloud.Actions.register_all env;
    Tcloud.Procs.register_all env;
    env
  in
  let spawn_args =
    Tcloud.Procs.spawn_vm_args ~vm:"bench" ~template:"base.img" ~mem_mb:1024
      ~storage:storage0 ~host:host0
  in
  let migrate_args =
    Tcloud.Procs.migrate_vm_args ~src:host0 ~dst:host2
      ~vm:(Tcloud.Setup.prepop_vm_name ~host:0 ~index:0)
  in
  let simulate env args proc () =
    match Tropic.Logical.simulate env ~tree ~proc ~args with
    | Ok _ -> ()
    | Error reason -> failwith reason
  in
  let spawn_result =
    match Tropic.Logical.simulate env ~tree ~proc:"spawnVM" ~args:spawn_args with
    | Ok r -> r
    | Error reason -> failwith reason
  in
  let migrate_result =
    match
      Tropic.Logical.simulate env ~tree ~proc:"migrateVM" ~args:migrate_args
    with
    | Ok r -> r
    | Error reason -> failwith reason
  in
  let rollback (r : Tropic.Logical.success) () =
    match
      Tropic.Logical.rollback env ~tree:r.Tropic.Logical.new_tree
        ~log:r.Tropic.Logical.log
    with
    | Ok _ -> ()
    | Error (_, reason) -> failwith reason
  in
  let registry = Tropic.Dsl.constraints_of env in
  let host_path = Tcloud.Setup.compute_path 0 in
  let locks = Mglock.create () in
  let lock_set = spawn_result.Tropic.Logical.locks in
  let txn_record =
    let txn =
      Tropic.Txn.make ~id:1 ~proc:"spawnVM" ~args:spawn_args ~submitted_at:0.
    in
    txn.Tropic.Txn.log <- spawn_result.Tropic.Logical.log;
    txn.Tropic.Txn.locks <- lock_set;
    Tropic.Txn.to_string txn
  in
  let coord_store = Coord.Store.create () in
  let counter = ref 0 in
  [
    (* Table 1 / §6.1: the logical work of one spawn transaction. *)
    Test.make ~name:"simulate-spawnVM (5 actions)"
      (Staged.stage (simulate env spawn_args "spawnVM"));
    Test.make ~name:"simulate-migrateVM"
      (Staged.stage (simulate env migrate_args "migrateVM"));
    (* §6.2: constraint checking. *)
    Test.make ~name:"simulate-spawnVM-no-constraints"
      (Staged.stage (simulate bare_env spawn_args "spawnVM"));
    Test.make ~name:"constraint-check-path"
      (Staged.stage (fun () ->
           ignore (Tropic.Constraints.check_path registry tree host_path)));
    (* §6.3: rollback. *)
    Test.make ~name:"rollback-spawnVM" (Staged.stage (rollback spawn_result));
    Test.make ~name:"rollback-migrateVM" (Staged.stage (rollback migrate_result));
    (* §3.1.3: concurrency control. *)
    Test.make ~name:"mglock-acquire-release"
      (Staged.stage (fun () ->
           (match Mglock.try_acquire locks ~txn:1 lock_set with
            | Ok () -> ()
            | Error _ -> failwith "unexpected lock conflict");
           ignore (Mglock.release_all locks ~txn:1)));
    (* §2.3: transaction-record persistence codec. *)
    Test.make ~name:"txn-record-encode+decode"
      (Staged.stage (fun () ->
           match Tropic.Txn.of_string txn_record with
           | Ok _ -> ()
           | Error reason -> failwith reason));
    (* Coordination state machine. *)
    Test.make ~name:"coord-store-apply-create"
      (Staged.stage (fun () ->
           incr counter;
           ignore
             (Coord.Store.apply coord_store
                (Coord.Types.Create
                   {
                     session = 1;
                     req = !counter;
                     key = "/bench/item-";
                     value = "x";
                     ephemeral = false;
                     sequential = true;
                   }))));
  ]

let run_micro () =
  Experiments.Common.section
    "Micro-benchmarks (Bechamel): engine operations backing §6.2/§6.3";
  let tests = Test.make_grouped ~name:"tropic" (micro_tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some [ t ] -> t
          | Some _ | None -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  Printf.printf "%-45s %15s\n" "operation" "time/run";
  List.iter
    (fun (name, ns) ->
      let time =
        if ns < 1_000. then Printf.sprintf "%.0f ns" ns
        else if ns < 1_000_000. then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.2f ms" (ns /. 1e6)
      in
      Printf.printf "%-45s %15s\n" name time)
    rows;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Contention micro-benchmark: rescan vs wake-on-release (BENCH_sched.json)

   N transactions over K shared subtrees; each wants a guard R on its
   subtree root plus W on its own object, so transactions on the same
   subtree serialize (the R and the object's ancestor IW join to W on the
   root).  Arrivals are one burst; completions happen in start order.  The
   "rescan" policy re-attempts every deferred transaction on every
   completion — the scheduler this PR replaces — while the "wake" policy
   re-attempts only the waiters [Mglock.release_all] reports.  The metric
   is [Mglock.acquire_attempts] per committed transaction. *)

type sched_point = {
  sp_subtrees : int;
  sp_attempts : int;
  sp_per_commit : float;
  sp_wakeups : int;
  sp_spurious : int;
}

let sched_lock_set ~subtrees i =
  let sub = Data.Path.v (Printf.sprintf "/bench/sub%03d" (i mod subtrees)) in
  [
    (sub, Mglock.R);
    (Data.Path.child sub (Printf.sprintf "obj%04d" i), Mglock.W);
  ]

let run_sched_policy ~wake ~txns:n ~subtrees =
  let locks = Mglock.create () in
  let running = Queue.create () in
  let deferred = ref [] in
  let wakeups = ref 0 and spurious = ref 0 in
  let attempt i =
    let set = sched_lock_set ~subtrees i in
    match Mglock.try_acquire locks ~txn:i set with
    | Ok () ->
      Queue.add i running;
      true
    | Error c ->
      if wake then Mglock.wait locks ~txn:i ~on:c.Mglock.path set;
      false
  in
  for i = 1 to n do
    if not (attempt i) then deferred := i :: !deferred
  done;
  deferred := List.rev !deferred;
  while not (Queue.is_empty running) do
    let woken = Mglock.release_all locks ~txn:(Queue.pop running) in
    if wake then begin
      wakeups := !wakeups + List.length woken;
      List.iter
        (fun i ->
          if attempt i then deferred := List.filter (fun j -> j <> i) !deferred
          else incr spurious)
        woken
    end
    else deferred := List.filter (fun i -> not (attempt i)) !deferred
  done;
  assert (!deferred = []);
  {
    sp_subtrees = subtrees;
    sp_attempts = Mglock.acquire_attempts locks;
    sp_per_commit = float_of_int (Mglock.acquire_attempts locks) /. float_of_int n;
    sp_wakeups = !wakeups;
    sp_spurious = !spurious;
  }

let run_sched_bench () =
  let txns = 256 in
  let levels = [ 2; 8; 16 ] in
  Experiments.Common.section
    (Printf.sprintf
       "Scheduler contention: rescan vs wake-on-release (%d txns)" txns);
  let points =
    List.map
      (fun subtrees ->
        let rescan = run_sched_policy ~wake:false ~txns ~subtrees in
        let wake = run_sched_policy ~wake:true ~txns ~subtrees in
        (rescan, wake))
      levels
  in
  let ratio (rescan, wake) =
    float_of_int rescan.sp_attempts /. float_of_int wake.sp_attempts
  in
  Printf.printf "%10s %12s %20s %18s %10s %10s %8s\n" "subtrees" "txns/subtree"
    "rescan att/commit" "wake att/commit" "wakeups" "spurious" "ratio";
  List.iter
    (fun ((rescan, wake) as pair) ->
      Printf.printf "%10d %12d %20.2f %18.2f %10d %10d %7.1fx\n"
        rescan.sp_subtrees
        (txns / rescan.sp_subtrees)
        rescan.sp_per_commit wake.sp_per_commit wake.sp_wakeups
        wake.sp_spurious (ratio pair))
    points;
  let best = List.fold_left (fun a b -> if ratio b > ratio a then b else a)
      (List.hd points) (List.tl points)
  in
  let out = "BENCH_sched.json" in
  let oc = open_out out in
  let point_json ((rescan, wake) as pair) =
    Printf.sprintf
      "    { \"subtrees\": %d, \"txns_per_subtree\": %d,\n\
      \      \"rescan_attempts\": %d, \"rescan_attempts_per_commit\": %.3f,\n\
      \      \"wake_attempts\": %d, \"wake_attempts_per_commit\": %.3f,\n\
      \      \"wakeups\": %d, \"spurious_wakeups\": %d, \"attempts_ratio\": %.3f }"
      rescan.sp_subtrees (txns / rescan.sp_subtrees) rescan.sp_attempts
      rescan.sp_per_commit wake.sp_attempts wake.sp_per_commit wake.sp_wakeups
      wake.sp_spurious (ratio pair)
  in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"sched-contention\",\n\
    \  \"generated_by\": \"bench/main.exe sched\",\n\
    \  \"txns\": %d,\n\
    \  \"points\": [\n%s\n  ],\n\
    \  \"high_contention\": { \"subtrees\": %d, \"attempts_ratio\": %.3f, \
     \"meets_2x_target\": %b }\n\
     }\n"
    txns
    (String.concat ",\n" (List.map point_json points))
    (fst best).sp_subtrees (ratio best)
    (ratio best >= 2.);
  close_out oc;
  Printf.printf "wrote %s (high-contention attempts ratio %.1fx)\n\n%!" out
    (ratio best)

(* ------------------------------------------------------------------ *)
(* Overload micro-benchmark: shed vs queue (BENCH_overload.json)

   A single deterministic worker fed faster than it serves — the storm
   regime admission control exists for.  Requests arrive every
   [arrival_gap] and take [service] to process, FIFO.  The "queue"
   policy admits everything, so sojourn time grows linearly for as long
   as the storm lasts; the "shed" policy fast-aborts arrivals once the
   queue hits the high watermark and resumes below the low one, trading
   a bounded p99 for explicit `Overload aborts.  The metric is the
   latency tail of the requests actually served. *)

type overload_point = {
  ov_mode : string;
  ov_served : int;
  ov_shed : int;
  ov_p50 : float;
  ov_p90 : float;
  ov_p99 : float;
  ov_max : float;
}

let run_overload_policy ~shed ~requests ~arrival_gap ~service ~high ~low =
  let cdf = Metrics.Cdf.create () in
  let pending = Queue.create () in (* completion times of admitted, FIFO *)
  let sheds = ref 0 in
  let shedding = ref false in
  let last_done = ref 0. in
  for i = 0 to requests - 1 do
    let arrival = float_of_int i *. arrival_gap in
    while (not (Queue.is_empty pending)) && Queue.peek pending <= arrival do
      ignore (Queue.pop pending)
    done;
    let depth = Queue.length pending in
    let admit =
      if not shed then true
      else if !shedding then
        if depth <= low then begin
          shedding := false;
          true
        end
        else false
      else if depth >= high then begin
        shedding := true;
        false
      end
      else true
    in
    if admit then begin
      let start = Float.max arrival !last_done in
      let finish = start +. service in
      last_done := finish;
      Queue.add finish pending;
      Metrics.Cdf.add cdf (finish -. arrival)
    end
    else incr sheds
  done;
  {
    ov_mode = (if shed then "shed" else "queue");
    ov_served = Metrics.Cdf.count cdf;
    ov_shed = !sheds;
    ov_p50 = Metrics.Cdf.quantile cdf 0.5;
    ov_p90 = Metrics.Cdf.quantile cdf 0.9;
    ov_p99 = Metrics.Cdf.quantile cdf 0.99;
    ov_max = Metrics.Cdf.max_value cdf;
  }

let run_overload_bench () =
  let requests = 2_000 in
  (* 25% overload: arrivals every 0.8 s, service 1 s.  Watermarks match
     the chaos harness's admission config (high 48, low 32). *)
  let arrival_gap = 0.8 and service = 1.0 in
  let high = 48 and low = 32 in
  Experiments.Common.section
    (Printf.sprintf
       "Overload: shed vs queue (%d requests, arrivals %.1fx service rate)"
       requests (service /. arrival_gap));
  let queue_pt =
    run_overload_policy ~shed:false ~requests ~arrival_gap ~service ~high ~low
  in
  let shed_pt =
    run_overload_policy ~shed:true ~requests ~arrival_gap ~service ~high ~low
  in
  Printf.printf "%8s %8s %8s %10s %10s %10s %10s\n" "mode" "served" "shed"
    "p50" "p90" "p99" "max";
  List.iter
    (fun p ->
      Printf.printf "%8s %8d %8d %9.1fs %9.1fs %9.1fs %9.1fs\n" p.ov_mode
        p.ov_served p.ov_shed p.ov_p50 p.ov_p90 p.ov_p99 p.ov_max)
    [ queue_pt; shed_pt ];
  (* Shedding keeps the tail near the high watermark's worth of service
     time; queueing lets it grow with the storm. *)
  let p99_bound = float_of_int (high + 1) *. service in
  let bounded_p99 =
    shed_pt.ov_p99 <= p99_bound && shed_pt.ov_p99 < queue_pt.ov_p99
  in
  let out = "BENCH_overload.json" in
  let oc = open_out out in
  let point_json p =
    Printf.sprintf
      "    { \"mode\": %S, \"served\": %d, \"shed\": %d,\n\
      \      \"p50_s\": %.3f, \"p90_s\": %.3f, \"p99_s\": %.3f, \"max_s\": \
       %.3f }"
      p.ov_mode p.ov_served p.ov_shed p.ov_p50 p.ov_p90 p.ov_p99 p.ov_max
  in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"overload-shed-vs-queue\",\n\
    \  \"generated_by\": \"bench/main.exe overload\",\n\
    \  \"requests\": %d,\n\
    \  \"arrival_gap_s\": %.3f,\n\
    \  \"service_s\": %.3f,\n\
    \  \"queue_high\": %d,\n\
    \  \"queue_low\": %d,\n\
    \  \"modes\": [\n%s\n  ],\n\
    \  \"headline\": { \"shed_p99_s\": %.3f, \"queue_p99_s\": %.3f, \
     \"p99_bound_s\": %.3f, \"bounded_p99\": %b }\n\
     }\n"
    requests arrival_gap service high low
    (String.concat ",\n" (List.map point_json [ queue_pt; shed_pt ]))
    shed_pt.ov_p99 queue_pt.ov_p99 p99_bound bounded_p99;
  close_out oc;
  Printf.printf "wrote %s (shed p99 %.1fs vs queue p99 %.1fs, bounded: %b)\n\n%!"
    out shed_pt.ov_p99 queue_pt.ov_p99 bounded_p99

(* ------------------------------------------------------------------ *)
(* Shard-scaling macro-benchmark (BENCH_shard.json)

   The same deployment — H compute hosts, each with one prepopulated VM —
   run at 1/2/4/8 resource-tree shards, each shard bringing its own
   controller and worker pool (the per-shard replica-group deployment the
   sharded platform models).  The workload is strictly single-shard:
   every host's driver toggles its VM start/stop, and start/stop lock
   only the host's subtree, so no transaction crosses shards and the
   measured quantity is pure pipeline parallelism — how committed-txn/s
   grows as the singleton controller bottleneck is split.  Virtual
   (simulated) seconds, so the numbers are deterministic. *)

type shard_point = {
  sh_shards : int;
  sh_committed : int;
  sh_failed : int;
  sh_virtual_s : float;
  sh_txn_per_s : float;
}

(* Closed-loop toggle load shared by the shard and throughput benches: a
   seed-42 deployment of [hosts] compute hosts with one prepopulated VM
   each, and one driver per host toggling its VM start/stop [ops] times
   with zero think time.  [on_txn state latency] sees every outcome.
   Returns the platform and the virtual seconds from the first submission
   (every shard led) to the last commit. *)
let run_toggles ?timing spec ~hosts ~ops ~on_txn =
  let sim = Des.Sim.create ~seed:42 () in
  let size =
    {
      Tcloud.Setup.small with
      Tcloud.Setup.compute_hosts = hosts;
      prepopulated_vms_per_host = 1;
    }
  in
  let inv = Tcloud.Setup.build ?timing ~rng:(Des.Sim.rng sim) size in
  let platform =
    Tropic.Platform.create spec inv.Tcloud.Setup.env
      ~initial_tree:inv.Tcloud.Setup.tree ~devices:inv.Tcloud.Setup.devices sim
  in
  let driver h () =
    let host = Data.Path.to_string (Tcloud.Setup.compute_path h) in
    let vm = Tcloud.Setup.prepop_vm_name ~host:h ~index:0 in
    let one proc args =
      let t0 = Des.Sim.now sim in
      let state = Tropic.Platform.run_txn platform ~proc ~args in
      on_txn state (Des.Sim.now sim -. t0)
    in
    for _ = 1 to ops do
      one "startVM" (Tcloud.Procs.start_vm_args ~host ~vm);
      one "stopVM" (Tcloud.Procs.stop_vm_args ~host ~vm)
    done
  in
  let elapsed = ref 0. in
  Experiments.Common.run_scenario platform (fun () ->
      for sid = 0 to spec.Tropic.Platform.shards - 1 do
        ignore (Tropic.Platform.await_shard_leader platform sid)
      done;
      let t0 = Des.Sim.now sim in
      List.init hosts (fun h ->
          Des.Proc.spawn ~name:(Printf.sprintf "driver-%d" h) sim (driver h))
      |> List.iter (fun p -> ignore (Des.Proc.await p));
      elapsed := Des.Sim.now sim -. t0);
  (platform, !elapsed)

let run_shard_point ~shards ~hosts ~toggles =
  let spec =
    {
      Tropic.Platform.default_spec with
      Tropic.Platform.controllers = 1;
      workers = 2;
      shards;
      mode = Tropic.Platform.Full;
      controller_config = Tcloud.Setup.controller_config;
      trace = None;
    }
  in
  let committed = ref 0 and failed = ref 0 in
  let _, elapsed =
    run_toggles ~timing:`Process spec ~hosts ~ops:toggles ~on_txn:(fun state _ ->
        if state = Tropic.Txn.Committed then incr committed else incr failed)
  in
  {
    sh_shards = shards;
    sh_committed = !committed;
    sh_failed = !failed;
    sh_virtual_s = elapsed;
    sh_txn_per_s =
      (if elapsed > 0. then float_of_int !committed /. elapsed else 0.);
  }

let run_shard_bench () =
  let hosts = 16 and toggles = 4 in
  Experiments.Common.section
    (Printf.sprintf
       "Shard scaling: committed-txn/s vs shard count (%d hosts, %d toggles \
        each)"
       hosts (2 * toggles));
  let points =
    List.map
      (fun shards -> run_shard_point ~shards ~hosts ~toggles)
      [ 1; 2; 4; 8 ]
  in
  let base = (List.hd points).sh_txn_per_s in
  let speedup p = if base > 0. then p.sh_txn_per_s /. base else 0. in
  Printf.printf "%8s %12s %10s %14s %10s\n" "shards" "committed" "failed"
    "virtual s" "txn/s";
  List.iter
    (fun p ->
      Printf.printf "%8d %12d %10d %14.1f %9.2f (%.2fx)\n" p.sh_shards
        p.sh_committed p.sh_failed p.sh_virtual_s p.sh_txn_per_s (speedup p))
    points;
  let rate n = (List.nth points n).sh_txn_per_s in
  let monotonic_1_to_4 = rate 1 >= rate 0 && rate 2 >= rate 1 in
  let out = "BENCH_shard.json" in
  let oc = open_out out in
  let point_json p =
    Printf.sprintf
      "    { \"shards\": %d, \"committed\": %d, \"failed\": %d,\n\
      \      \"virtual_s\": %.2f, \"txn_per_s\": %.3f, \"speedup\": %.3f }"
      p.sh_shards p.sh_committed p.sh_failed p.sh_virtual_s p.sh_txn_per_s
      (speedup p)
  in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"shard-scaling\",\n\
    \  \"generated_by\": \"bench/main.exe shard\",\n\
    \  \"hosts\": %d,\n\
    \  \"toggles_per_host\": %d,\n\
    \  \"points\": [\n%s\n  ],\n\
    \  \"headline\": { \"speedup_2\": %.3f, \"speedup_4\": %.3f, \
     \"speedup_8\": %.3f, \"monotonic_1_to_4\": %b }\n\
     }\n"
    hosts (2 * toggles)
    (String.concat ",\n" (List.map point_json points))
    (speedup (List.nth points 1))
    (speedup (List.nth points 2))
    (speedup (List.nth points 3))
    monotonic_1_to_4;
  close_out oc;
  Printf.printf "wrote %s (2 shards %.2fx, 4 shards %.2fx, monotonic: %b)\n\n%!"
    out
    (speedup (List.nth points 1))
    (speedup (List.nth points 2))
    monotonic_1_to_4

(* ------------------------------------------------------------------ *)
(* Saturation throughput macro-benchmark (BENCH_throughput.json)

   A closed-loop load generator: N client sessions, each with zero think
   time, toggling its own VM start/stop on its own host — the single-shard
   hosting mix, so there is no lock contention and the ceiling is the
   coordination write path (every persist, queue item and record delete is
   a replicated command charged to the leader's op-service station).  The
   ladder raises N until committed-txn/s plateaus; each level reports the
   rate plus the driver-observed commit-latency p50/p99.  Run once with
   group commit (per-txn persists coalesced into one grouped append per
   quorum round) and once with the [group_commit:false] ablation, whose
   per-command station charge is the pre-batching baseline the headline
   ratio is measured against. *)

type tp_point = {
  tp_sessions : int;
  tp_committed : int;
  tp_other : int;  (* aborted/failed — expected 0 on this workload *)
  tp_virtual_s : float;
  tp_rate : float;
  tp_p50 : float;
  tp_p99 : float;
  tp_flushes : int;
  tp_mean_batch : float;
  tp_max_batch : int;
}

let run_throughput_point ~group_commit ~sessions ~ops =
  let spec =
    {
      Tropic.Platform.default_spec with
      Tropic.Platform.controllers = 1;
      workers = 4;
      shards = 1;
      (* Physical replay stubbed to a fixed small delay: the measured
         ceiling must be the coordination write path, not device time. *)
      mode = Tropic.Platform.Logical_only 0.002;
      (* Disk-backed log: 5 ms fsync per append round (both arms), so the
         op-service station — not the LAN round trip — is the ceiling the
         batcher amortizes.  The flush timer stays well under the fsync. *)
      coord_config =
        {
          Coord.Types.default_config with
          Coord.Types.group_commit;
          op_service_time = 0.005;
          group_timeout = 0.001;
        };
      controller_config = Tcloud.Setup.controller_config;
      submit_clients = min sessions 16;
      trace = None;
    }
  in
  let committed = ref 0 and other = ref 0 in
  let lat = Metrics.Cdf.create () in
  let platform, elapsed =
    run_toggles spec ~hosts:sessions ~ops ~on_txn:(fun state latency ->
        if state = Tropic.Txn.Committed then begin
          incr committed;
          Metrics.Cdf.add lat latency
        end
        else incr other)
  in
  let g = Tropic.Platform.group_commit_stats platform in
  {
    tp_sessions = sessions;
    tp_committed = !committed;
    tp_other = !other;
    tp_virtual_s = elapsed;
    tp_rate = (if elapsed > 0. then float_of_int !committed /. elapsed else 0.);
    tp_p50 = Metrics.Cdf.quantile lat 0.5;
    tp_p99 = Metrics.Cdf.quantile lat 0.99;
    tp_flushes = g.Coord.Types.flushes;
    tp_mean_batch =
      (if g.Coord.Types.flushes = 0 then 0.
       else
         float_of_int g.Coord.Types.batched_cmds
         /. float_of_int g.Coord.Types.flushes);
    tp_max_batch = g.Coord.Types.max_batch;
  }

let run_throughput_bench () =
  let ladder = [ 1; 2; 4; 8; 16; 32; 64 ] in
  (* Closed loop with a fixed per-ladder transaction budget, so high
     concurrency levels don't multiply the run length. *)
  let budget = 512 in
  Experiments.Common.section
    (Printf.sprintf
       "Saturation throughput: committed-txn/s vs closed-loop sessions \
        (budget %d txns/level)"
       budget);
  let run_ladder ~group_commit =
    List.map
      (fun sessions ->
        let ops = max 2 (budget / (2 * sessions)) in
        run_throughput_point ~group_commit ~sessions ~ops)
      ladder
  in
  let on_pts = run_ladder ~group_commit:true in
  let off_pts = run_ladder ~group_commit:false in
  let print_ladder label pts =
    Printf.printf "%s\n%10s %10s %8s %12s %10s %10s %10s %9s\n" label
      "sessions" "committed" "other" "virtual s" "txn/s" "p50 ms" "p99 ms"
      "batch";
    List.iter
      (fun p ->
        Printf.printf "%10d %10d %8d %12.2f %10.2f %10.2f %10.2f %8.1f\n"
          p.tp_sessions p.tp_committed p.tp_other p.tp_virtual_s p.tp_rate
          (1e3 *. p.tp_p50) (1e3 *. p.tp_p99) p.tp_mean_batch)
      pts
  in
  print_ladder "group commit ON" on_pts;
  print_ladder "group commit OFF (ablation)" off_pts;
  let last l = List.nth l (List.length l - 1) in
  let penultimate l = List.nth l (List.length l - 2) in
  let top_on = last on_pts and top_off = last off_pts in
  (* Saturation: the last doubling of sessions buys < 25% more rate. *)
  let plateau = top_on.tp_rate < 1.25 *. (penultimate on_pts).tp_rate in
  let ratio =
    if top_off.tp_rate > 0. then top_on.tp_rate /. top_off.tp_rate else 0.
  in
  let out = "BENCH_throughput.json" in
  let oc = open_out out in
  let point_json p =
    Printf.sprintf
      "    { \"sessions\": %d, \"committed\": %d, \"other\": %d,\n\
      \      \"virtual_s\": %.3f, \"txn_per_s\": %.3f,\n\
      \      \"commit_p50_s\": %.5f, \"commit_p99_s\": %.5f,\n\
      \      \"flushes\": %d, \"mean_batch\": %.2f, \"max_batch\": %d }"
      p.tp_sessions p.tp_committed p.tp_other p.tp_virtual_s p.tp_rate
      p.tp_p50 p.tp_p99 p.tp_flushes p.tp_mean_batch p.tp_max_batch
  in
  let ladder_json pts = String.concat ",\n" (List.map point_json pts) in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"throughput-saturation\",\n\
    \  \"generated_by\": \"bench/main.exe throughput\",\n\
    \  \"txn_budget_per_level\": %d,\n\
    \  \"group_commit_on\": [\n%s\n  ],\n\
    \  \"group_commit_off\": [\n%s\n  ],\n\
    \  \"headline\": { \"saturating_sessions\": %d, \"on_txn_per_s\": %.3f, \
     \"off_txn_per_s\": %.3f, \"speedup\": %.3f, \"meets_3x_target\": %b, \
     \"saturated\": %b }\n\
     }\n"
    budget (ladder_json on_pts) (ladder_json off_pts)
    top_on.tp_sessions top_on.tp_rate top_off.tp_rate ratio (ratio >= 3.)
    plateau;
  close_out oc;
  Printf.printf
    "wrote %s (at %d sessions: on %.1f txn/s vs off %.1f txn/s = %.2fx, \
     saturated: %b)\n\n%!"
    out top_on.tp_sessions top_on.tp_rate top_off.tp_rate ratio plateau

(* ------------------------------------------------------------------ *)
(* Experiment harness entries *)

let quick () = Experiments.Common.quick_mode ()

let perf_cfg () =
  if quick () then Experiments.Perf.quick_config
  else Experiments.Perf.default_config

let run_fig45 () =
  Experiments.Perf.print_fig4_fig5 ~multipliers:[ 1; 2; 3; 4; 5 ] (perf_cfg ())

let run_safety () =
  Experiments.Safety.print
    (Experiments.Safety.run ~iterations:(if quick () then 2_000 else 20_000) ())

let run_robustness () =
  Experiments.Robustness.print
    (Experiments.Robustness.run
       ~iterations:(if quick () then 2_000 else 20_000)
       ~injections:(if quick () then 8 else 20)
       ())

let run_ha () = Experiments.Ha.print (Experiments.Ha.run ())

let run_hosting () =
  Experiments.Hosting_run.print
    (Experiments.Hosting_run.run
       ~duration:(if quick () then 120. else 300.)
       ())

let run_scale () =
  Experiments.Scale.print
    (Experiments.Scale.run
       ~host_counts:(if quick () then [ 500; 2_000 ] else [ 500; 2_000; 8_000 ])
       ())

let run_ablation () = Experiments.Ablation.print (Experiments.Ablation.run ())

let run_all () =
  Experiments.Table1.print ();
  run_micro ();
  run_sched_bench ();
  run_overload_bench ();
  run_shard_bench ();
  run_throughput_bench ();
  Experiments.Perf.print_fig3 ();
  run_fig45 ();
  run_safety ();
  run_robustness ();
  run_ha ();
  run_hosting ();
  run_scale ();
  run_ablation ()

let () =
  match Array.to_list Sys.argv with
  | [ _ ] | [ _; "all" ] -> run_all ()
  | [ _; "micro" ] -> run_micro ()
  | [ _; "sched" ] -> run_sched_bench ()
  | [ _; "overload" ] -> run_overload_bench ()
  | [ _; "shard" ] -> run_shard_bench ()
  | [ _; "throughput" ] -> run_throughput_bench ()
  | [ _; "table1" ] -> Experiments.Table1.print ()
  | [ _; "fig3" ] -> Experiments.Perf.print_fig3 ()
  | [ _; ("fig4" | "fig5") ] -> run_fig45 ()
  | [ _; "safety" ] -> run_safety ()
  | [ _; "robustness" ] -> run_robustness ()
  | [ _; "ha" ] -> run_ha ()
  | [ _; "hosting" ] -> run_hosting ()
  | [ _; "scale" ] -> run_scale ()
  | [ _; "ablation" ] -> run_ablation ()
  | _ ->
    prerr_endline
      "usage: main.exe \
       [all|micro|sched|overload|shard|throughput|table1|fig3|fig4|fig5|safety|robustness|ha|hosting|scale|ablation]";
    exit 2
