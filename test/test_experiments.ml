(* Integration tests at the experiment-harness level: small versions of the
   paper's runs, plus whole-system invariants under mixed workloads and
   random fault injection. *)

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Perf harness invariants (miniature Fig. 4/5 run) *)

let test_perf_run_invariants () =
  let cfg =
    {
      Experiments.Perf.quick_config with
      Experiments.Perf.hosts = 100;
      window_start = 0;
      duration = 30;
      drain = 60.;
      bucket = 10.;
    }
  in
  let r = Experiments.Perf.run { cfg with Experiments.Perf.multiplier = 1 } in
  check int_c "nothing lost" 0 r.Experiments.Perf.lost;
  check int_c "all accounted" r.Experiments.Perf.offered
    (r.Experiments.Perf.committed + r.Experiments.Perf.aborted
     + r.Experiments.Perf.failed);
  check bool_c "some committed" true (r.Experiments.Perf.committed > 0);
  check bool_c "low-load median under a second" true
    (Metrics.Cdf.quantile r.Experiments.Perf.latency 0.5 < 1.0);
  List.iter
    (fun (_, u) ->
      if u < -1e-9 || u > 1.0 +. 1e-9 then
        Alcotest.failf "utilization %f out of range" u)
    (Metrics.Series.rows r.Experiments.Perf.cpu_util)

(* ------------------------------------------------------------------ *)
(* HA harness invariants (miniature §6.4) *)

let test_ha_run_invariants () =
  let r =
    Experiments.Ha.run ~session_timeout:2. ~rate:2. ~kill_at:20. ~duration:60.
      ()
  in
  check int_c "no transaction lost" 0 r.Experiments.Ha.lost;
  check bool_c "takeover after failure detection" true
    (r.Experiments.Ha.takeover_seconds >= 1.5);
  check bool_c "recovery bounded" true
    (r.Experiments.Ha.recovery_seconds < 15.);
  check bool_c "commits resumed" true
    (Float.is_finite r.Experiments.Ha.first_commit_after)

(* ------------------------------------------------------------------ *)
(* §6.2/§6.3 real-cost experiments at their --quick size *)

let positive_us name us =
  if not (Float.is_finite us && us > 0.) then
    Alcotest.failf "%s: %f us is not a positive time" name us

let test_safety_quick () =
  let r = Experiments.Safety.run ~quick:true () in
  positive_us "simulate with constraints"
    r.Experiments.Safety.with_constraints_us;
  positive_us "simulate without constraints"
    r.Experiments.Safety.without_constraints_us;
  check bool_c "illegal migration rejected" true
    r.Experiments.Safety.migrate_rejected

let test_robustness_quick () =
  let r = Experiments.Robustness.run ~quick:true () in
  let e = r.Experiments.Robustness.e2e in
  check bool_c "faults injected" true (e.Experiments.Robustness.injected > 0);
  check int_c "every injected fault aborts cleanly"
    e.Experiments.Robustness.injected e.Experiments.Robustness.aborted;
  check int_c "every control spawn commits" e.Experiments.Robustness.injected
    e.Experiments.Robustness.committed;
  check int_c "no VM left behind" 0 e.Experiments.Robustness.residue;
  positive_us "spawn rollback"
    r.Experiments.Robustness.micro.Experiments.Robustness.spawn_rollback_us;
  positive_us "migrate rollback"
    r.Experiments.Robustness.micro.Experiments.Robustness.migrate_rollback_us

(* ------------------------------------------------------------------ *)
(* Whole-system consistency under the hosting mix *)

let hosting_ops ~seed ~count =
  let config =
    {
      Workload.Hosting.default_config with
      Workload.Hosting.rate_per_second = 1.;
      duration_seconds = float_of_int count;
      compute_hosts = 8;
      storage_hosts = 2;
      hypervisor_groups = 2;
      vm_mem_mb = 512;
    }
  in
  Workload.Hosting.generate ~seed config

let run_hosting_mix ~seed ~fault_probability =
  let sim = Des.Sim.create ~seed () in
  let size =
    {
      Tcloud.Setup.small with
      Tcloud.Setup.compute_hosts = 8;
      storage_hosts = 2;
      storage_capacity_mb = 5_000_000;
    }
  in
  (* Instant devices keep the test fast; Full mode still drives them. *)
  let inv = Tcloud.Setup.build ~rng:(Des.Sim.rng sim) size in
  if fault_probability > 0. then
    List.iter
      (fun device ->
        match
          Devices.Fault.set_probability
            (Devices.Device.faults device)
            fault_probability
        with
        | Ok () -> ()
        | Error msg -> failwith msg)
      inv.Tcloud.Setup.devices;
  let platform =
    Tropic.Platform.create
      {
        Tropic.Platform.default_spec with
        Tropic.Platform.workers = 4;
        controller_config = Tcloud.Setup.controller_config;
      }
      inv.Tcloud.Setup.env ~initial_tree:inv.Tcloud.Setup.tree
      ~devices:inv.Tcloud.Setup.devices sim
  in
  let committed = ref 0 and aborted = ref 0 and failed = ref 0 in
  Experiments.Common.run_scenario platform (fun () ->
      List.iter
        (fun (_, op) ->
          let proc, args =
            Workload.Hosting.to_submission
              ~host_path:(fun i ->
                Data.Path.to_string (Tcloud.Setup.compute_path i))
              ~storage_path:(fun i ->
                Data.Path.to_string (Tcloud.Setup.storage_path i))
              op
          in
          match Tropic.Platform.run_txn platform ~proc ~args with
          | Tropic.Txn.Committed -> incr committed
          | Tropic.Txn.Aborted _ -> incr aborted
          | Tropic.Txn.Failed _ -> incr failed
          | Tropic.Txn.Initialized | Tropic.Txn.Accepted | Tropic.Txn.Deferred
          | Tropic.Txn.Started ->
            ())
        (hosting_ops ~seed ~count:150));
  (platform, inv, !committed, !aborted, !failed)

(* Every device whose subtree is not quarantined must agree exactly with
   the logical layer — the system's central invariant. *)
let assert_layers_consistent platform inv =
  let leader =
    match Tropic.Platform.leader_controller platform with
    | Some c -> c
    | None -> Alcotest.fail "no leading controller after the run"
  in
  let quarantined = Tropic.Controller.quarantined leader in
  let tree = Tropic.Controller.tree leader in
  let checked = ref 0 in
  List.iter
    (fun device ->
      let root = Devices.Device.root device in
      let is_quarantined =
        List.exists (fun q -> Data.Path.is_prefix q root) quarantined
      in
      if not is_quarantined then begin
        incr checked;
        match Data.Tree.subtree tree root with
        | Error e -> Alcotest.fail (Data.Tree.error_to_string e)
        | Ok logical ->
          if not (Data.Tree.equal logical (Devices.Device.export device)) then
            Alcotest.failf "layers diverge at %s" (Data.Path.to_string root)
      end)
    inv.Tcloud.Setup.devices;
  !checked

let test_hosting_mix_consistency () =
  let platform, inv, committed, _aborted, failed = run_hosting_mix ~seed:31 ~fault_probability:0. in
  check bool_c "most operations commit" true (committed > 100);
  check int_c "no failed txns without faults" 0 failed;
  let checked = assert_layers_consistent platform inv in
  check int_c "all devices checked" (List.length inv.Tcloud.Setup.devices) checked

(* Where the device faults land follows the fault RNG's interleaving with
   everything else, and with no repair sweeper a failed transaction
   quarantines its host for the rest of the run, so one seed's commit
   count is a lottery (anywhere from about 10 to 110 of the 150
   operations).  Progress is therefore checked as a mean over a seed
   range; consistency and aborts on every seed. *)
let test_hosting_mix_chaos_consistency () =
  let seeds = List.init 16 (fun i -> 20 + i) in
  let committed =
    List.fold_left
      (fun total seed ->
        let platform, inv, committed, aborted, _failed =
          run_hosting_mix ~seed ~fault_probability:0.04
        in
        check bool_c (Printf.sprintf "seed %d: faults caused aborts" seed) true
          (aborted > 0);
        (* Unquarantined devices stay exactly consistent even under random
           device faults: aborted transactions rolled back both layers. *)
        ignore (assert_layers_consistent platform inv);
        total + committed)
      0 seeds
  in
  check bool_c "still makes progress (mean committed > 50)" true
    (committed > 50 * List.length seeds)

(* ------------------------------------------------------------------ *)
(* Idempotent recovery under repeated controller crashes: no transaction
   is lost, none executes twice on the devices, and the layers stay
   consistent. *)

let test_repeated_controller_crashes () =
  let sim = Des.Sim.create ~seed:41 () in
  let size =
    {
      Tcloud.Setup.small with
      Tcloud.Setup.compute_hosts = 16;
      storage_hosts = 4;
      storage_capacity_mb = 5_000_000;
    }
  in
  let inv = Tcloud.Setup.build ~rng:(Des.Sim.rng sim) size in
  let platform =
    Tropic.Platform.create
      {
        Tropic.Platform.default_spec with
        Tropic.Platform.controllers = 3;
        workers = 3;
        controller_config = Tcloud.Setup.controller_config;
        controller_session_timeout = 2.0;
      }
      inv.Tcloud.Setup.env ~initial_tree:inv.Tcloud.Setup.tree
      ~devices:inv.Tcloud.Setup.devices sim
  in
  let states = ref [] in
  (* Assassin: kills whichever controller leads, twice, mid-stream.  Only
     two kills with three controllers — a quorum of the coordination
     service stays up throughout, but the platform loses its leader. *)
  ignore
    (Des.Proc.spawn ~name:"assassin" sim (fun () ->
         List.iter
           (fun delay ->
             Des.Proc.sleep delay;
             let leader = Tropic.Platform.await_leader_controller platform in
             let index =
               let found = ref 0 in
               Array.iteri
                 (fun i c -> if c == leader then found := i)
                 (Tropic.Platform.controllers platform);
               !found
             in
             Tropic.Platform.kill_controller platform index)
           [ 5.; 15. ]));
  Experiments.Common.run_scenario platform (fun () ->
      let ids =
        List.init 40 (fun k ->
            let h = k mod size.Tcloud.Setup.compute_hosts in
            let id =
              Tropic.Platform.submit platform ~proc:"spawnVM"
                ~args:
                  (Tcloud.Procs.spawn_vm_args
                     ~vm:(Printf.sprintf "cr%03d" k)
                     ~template:"base.img" ~mem_mb:512
                     ~storage:
                       (Data.Path.to_string
                          (Tcloud.Setup.storage_path
                             (h mod size.Tcloud.Setup.storage_hosts)))
                     ~host:
                       (Data.Path.to_string (Tcloud.Setup.compute_path h)))
            in
            Des.Proc.sleep 0.5;
            id)
      in
      states := List.map (fun id -> Tropic.Platform.await platform id) ids);
  let committed =
    List.length (List.filter (fun s -> s = Tropic.Txn.Committed) !states)
  in
  check int_c "all forty terminal" 40 (List.length !states);
  check bool_c "every txn terminal" true
    (List.for_all Tropic.Txn.is_terminal !states);
  check int_c "all committed (no capacity pressure)" 40 committed;
  (* Exactly-once on the devices: each committed spawn left exactly one VM. *)
  let vm_count =
    Array.fold_left
      (fun acc (_, compute) ->
        acc + List.length (Devices.Compute.vm_names compute))
      0 inv.Tcloud.Setup.computes
  in
  check int_c "each spawn executed exactly once" committed vm_count;
  ignore (assert_layers_consistent platform inv)

(* The repository's headline claim: whole-platform runs are deterministic
   — same seed, same committed set, same final logical tree. *)
let test_whole_run_determinism () =
  let final_tree (platform, _, _, _, _) =
    match Tropic.Platform.leader_controller platform with
    | Some c -> Tropic.Controller.tree c
    | None -> Alcotest.fail "no leader"
  in
  let run seed = run_hosting_mix ~seed ~fault_probability:0.02 in
  let a = run 55 and b = run 55 and c = run 56 in
  let counts (_, _, committed, aborted, failed) = (committed, aborted, failed) in
  check bool_c "same seed, same outcome counts" true (counts a = counts b);
  check bool_c "same seed, same final tree" true
    (Data.Tree.equal (final_tree a) (final_tree b));
  check bool_c "different seed differs somewhere" true
    (counts a <> counts c || not (Data.Tree.equal (final_tree a) (final_tree c)))

(* ------------------------------------------------------------------ *)
(* Scenario engine *)

let test_scenario_engine () =
  let script =
    String.concat "\n"
      [
        "hosts 4"; "mode full"; "seed 3";
        "spawn a 0"; "expect committed";
        "spawn big 0 9000"; "expect aborted";
        "migrate a 0 1"; "expect aborted";
        "destroy a 0"; "expect committed";
        "stats";
      ]
  in
  match Experiments.Scenario.run_script script with
  | Error message -> Alcotest.fail message
  | Ok outcome ->
    check int_c "four transactions" 4 outcome.Experiments.Scenario.transactions;
    check int_c "all expectations hold" 0
      outcome.Experiments.Scenario.failed_expectations;
    check bool_c "transcript non-empty" true
      (List.length outcome.Experiments.Scenario.lines >= 5)

let test_scenario_expectation_failure_detected () =
  match
    Experiments.Scenario.run_script "hosts 2\nspawn a 0\nexpect aborted"
  with
  | Error message -> Alcotest.fail message
  | Ok outcome ->
    check int_c "one failed expectation" 1
      outcome.Experiments.Scenario.failed_expectations

let test_scenario_unexpected_outcomes () =
  (* An abort blessed by `expect aborted` is healthy; one with no expect
     counts as unexpected (it is what makes tcloud_sim exit non-zero). *)
  (match
     Experiments.Scenario.run_script
       "hosts 2\nspawn a 0\nexpect committed\nspawn big 0 9000\nexpect aborted"
   with
  | Error message -> Alcotest.fail message
  | Ok outcome ->
    check int_c "blessed abort is not unexpected" 0
      outcome.Experiments.Scenario.unexpected_outcomes;
    check bool_c "layers consistent" true
      outcome.Experiments.Scenario.layers_consistent);
  match
    Experiments.Scenario.run_script
      "hosts 2\nspawn a 0\nspawn big 0 9000\nspawn b 1\nexpect committed"
  with
  | Error message -> Alcotest.fail message
  | Ok outcome ->
    check int_c "unblessed abort is unexpected" 1
      outcome.Experiments.Scenario.unexpected_outcomes;
    check int_c "no failed expectations" 0
      outcome.Experiments.Scenario.failed_expectations;
    check bool_c "layers still consistent" true
      outcome.Experiments.Scenario.layers_consistent

(* Admission control in a script: a fire-and-forget storm fills the
   pending queue, so the next awaited spawns are shed with the overload
   abort.  The storm's spawns serialize on host0's lock, so at most one
   runs and at least [high - 1 = 2] stay parked until its replay ends,
   seconds later; with the low watermark at 1, shedding cannot reopen
   before then, however fast the coordination service admits the storm.
   Regression for the tcloud_sim exit status: a shed transaction is the
   platform protecting itself, so it never counts as an unexpected
   outcome — blessed or not. *)
let test_scenario_overload_shedding () =
  let script =
    String.concat "\n"
      [
        "hosts 2"; "mode full"; "seed 7"; "admission 3 1";
        "storm 10 0";
        "spawn extra 0";  (* unblessed: shed must not be unexpected *)
        "spawn probe 0"; "expect overload";
        "stats";
      ]
  in
  match Experiments.Scenario.run_script script with
  | Error message -> Alcotest.fail message
  | Ok outcome ->
    check int_c "overload expectation holds" 0
      outcome.Experiments.Scenario.failed_expectations;
    check int_c "shed aborts are never unexpected" 0
      outcome.Experiments.Scenario.unexpected_outcomes;
    check bool_c "layers consistent after the storm" true
      outcome.Experiments.Scenario.layers_consistent

(* Goal-state convergence from a script: `converge FILE` bootstraps the
   fleet, a second run is a no-op, and `expect-converged` holds. *)
let with_goal_file contents f =
  let path = Filename.temp_file "tropic_goal" ".goal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc contents);
      f path)

let test_scenario_converge () =
  with_goal_file
    "(goal (host 0 (vm web0 running 1024) (vm web1 stopped 512))\n\
    \      (switch 0 (vlan 100 tenantA (port web0))))"
    (fun goal ->
      let script =
        String.concat "\n"
          [
            "hosts 2"; "mode full"; "seed 5";
            "converge " ^ goal; "expect-converged";
            "converge " ^ goal; "expect-converged";
          ]
      in
      match Experiments.Scenario.run_script script with
      | Error message -> Alcotest.fail message
      | Ok outcome ->
        check int_c "expectations hold" 0
          outcome.Experiments.Scenario.failed_expectations;
        check int_c "nothing blocked" 0
          outcome.Experiments.Scenario.blocked_convergences;
        (* spawn web0 + spawn web1 + stop web1 + createVlan + attach;
           the second converge finds no drift and submits nothing. *)
        check int_c "five transactions, second converge a no-op" 5
          outcome.Experiments.Scenario.transactions;
        check bool_c "layers consistent" true
          outcome.Experiments.Scenario.layers_consistent)

let test_scenario_converge_blocked () =
  (* A VM bigger than any host can take: every round's spawn aborts on
     the memory constraint, so the executor gives up and the run counts a
     blocked convergence (tcloud_sim's non-zero exit). *)
  with_goal_file "(goal (host 0 (vm whale running 9000)))" (fun goal ->
      let script =
        String.concat "\n"
          [
            "hosts 2"; "mode full"; "seed 5";
            "converge " ^ goal; "expect-converged";
          ]
      in
      match Experiments.Scenario.run_script script with
      | Error message -> Alcotest.fail message
      | Ok outcome ->
        check int_c "blocked convergence counted" 1
          outcome.Experiments.Scenario.blocked_convergences;
        check int_c "expect-converged fails" 1
          outcome.Experiments.Scenario.failed_expectations);
  (* A missing goal file blocks too, without crashing the scenario. *)
  match
    Experiments.Scenario.run_script
      "hosts 2\nconverge /nonexistent/no.goal\nexpect-converged"
  with
  | Error message -> Alcotest.fail message
  | Ok outcome ->
    check int_c "unreadable goal counts as blocked" 1
      outcome.Experiments.Scenario.blocked_convergences

let test_scenario_parse_errors () =
  List.iter
    (fun script ->
      match Experiments.Scenario.run_script script with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %S" script)
    [ "frobnicate"; "spawn onlyvm"; "sleep minus"; "hosts many";
      "admission 2 5"; "storm ten 0"; "expect sideways" ]

let suite =
  [
    ("perf: miniature run invariants", `Slow, test_perf_run_invariants);
    ("ha: miniature failover invariants", `Slow, test_ha_run_invariants);
    ("safety: quick run measures and rejects", `Quick, test_safety_quick);
    ("robustness: quick run aborts cleanly", `Quick, test_robustness_quick);
    ("hosting mix: layers consistent", `Slow, test_hosting_mix_consistency);
    ("hosting mix: consistent under chaos", `Slow, test_hosting_mix_chaos_consistency);
    ( "recovery: repeated controller crashes, exactly-once",
      `Slow,
      test_repeated_controller_crashes );
    ("whole-run determinism", `Slow, test_whole_run_determinism);
    ("scenario: engine", `Slow, test_scenario_engine);
    ("scenario: failed expectation detected", `Slow, test_scenario_expectation_failure_detected);
    ("scenario: unexpected outcomes tracked", `Slow, test_scenario_unexpected_outcomes);
    ("scenario: overload shedding", `Slow, test_scenario_overload_shedding);
    ("scenario: converge command", `Slow, test_scenario_converge);
    ("scenario: blocked convergence", `Slow, test_scenario_converge_blocked);
    ("scenario: parse errors", `Quick, test_scenario_parse_errors);
  ]

let () = Alcotest.run "experiments" [ ("experiments", suite) ]
