(* Smoke tests for the chaos fault-exploration subsystem: a small stock
   sweep must come back clean, the no-constraints ablation must be
   convicted, and a run must replay bit-identically from its seed. *)

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int

let config = Chaos.Runner.quick_config

let test_schedule_presets () =
  check bool_c "at least four presets" true
    (List.length Chaos.Schedule.presets >= 4);
  List.iter
    (fun s ->
      check bool_c
        (Printf.sprintf "%s is found by name" s.Chaos.Schedule.name)
        true
        (Chaos.Schedule.find s.Chaos.Schedule.name = Some s);
      check bool_c
        (Printf.sprintf "%s ends before the quick horizon" s.Chaos.Schedule.name)
        true
        (Chaos.Schedule.end_time s < config.Chaos.Runner.horizon))
    Chaos.Schedule.presets

let test_stock_sweep_clean () =
  let sweep =
    Chaos.Runner.sweep config ~schedules:Chaos.Schedule.presets
      ~seeds:(List.init 10 (fun i -> i + 1))
  in
  check int_c "ten runs" 10 (List.length sweep.Chaos.Runner.runs);
  List.iter
    (fun r ->
      check int_c
        (Printf.sprintf "seed %d (%s): no violations" r.Chaos.Runner.seed
           r.Chaos.Runner.schedule)
        0
        (List.length r.Chaos.Runner.violations);
      check bool_c
        (Printf.sprintf "seed %d (%s): workload made progress"
           r.Chaos.Runner.seed r.Chaos.Runner.schedule)
        true (r.Chaos.Runner.committed > 0))
    sweep.Chaos.Runner.runs

let test_no_constraints_convicted () =
  let config = { config with Chaos.Runner.build = Chaos.Runner.No_constraints } in
  let sweep =
    Chaos.Runner.sweep config ~schedules:Chaos.Schedule.presets
      ~seeds:(List.init 5 (fun i -> i + 1))
  in
  check bool_c "the ablation is convicted" true
    (sweep.Chaos.Runner.violating <> []);
  List.iter
    (fun r ->
      let line = Chaos.Runner.reproducer r in
      check bool_c "reproducer names the build" true
        (Str_contains.contains line "no-constraints");
      check bool_c "reproducer names the seed" true
        (Str_contains.contains line (string_of_int r.Chaos.Runner.seed)))
    sweep.Chaos.Runner.violating

let hang_storm =
  match Chaos.Schedule.find "hang-storm" with
  | Some s -> s
  | None -> Alcotest.fail "hang-storm preset missing"

(* With the robustness layer on, hung device invocations and crashed
   workers are rescued (deadline/retry below the watchdog, TERM→KILL
   above it): the sweep stays clean and the watchdog counters show it
   actually fired on at least one seed. *)
let test_hang_storm_clean () =
  let sweep =
    Chaos.Runner.sweep config ~schedules:[ hang_storm ]
      ~seeds:(List.init 4 (fun i -> i + 1))
  in
  List.iter
    (fun r ->
      check int_c
        (Printf.sprintf "seed %d: no violations" r.Chaos.Runner.seed)
        0
        (List.length r.Chaos.Runner.violations))
    sweep.Chaos.Runner.runs;
  let rescued =
    List.exists
      (fun r ->
        let total = Tropic.Stats.sum r.Chaos.Runner.stats in
        total.auto_terms > 0 || total.timeouts > 0 || total.exec_retries > 0)
      sweep.Chaos.Runner.runs
  in
  check bool_c "robustness layer exercised on some seed" true rescued

(* Stripping the watchdog (and the workers' retry/deadline policy) leaves
   hang-storm transactions wedged with their locks held: the stuck-lock /
   quiescence invariants must convict. *)
let test_no_watchdog_convicted () =
  let config = { config with Chaos.Runner.build = Chaos.Runner.No_watchdog } in
  let sweep =
    Chaos.Runner.sweep config ~schedules:[ hang_storm ]
      ~seeds:(List.init 4 (fun i -> i + 1))
  in
  check bool_c "the ablation is convicted" true
    (sweep.Chaos.Runner.violating <> []);
  List.iter
    (fun r ->
      check bool_c "reproducer names the build" true
        (Str_contains.contains (Chaos.Runner.reproducer r) "no-watchdog"))
    sweep.Chaos.Runner.violating

let flap_storm =
  match Chaos.Schedule.find "flap-storm" with
  | Some s -> s
  | None -> Alcotest.fail "flap-storm preset missing"

(* With the overload layer on, the flapping host trips its breaker and
   the request storm is shed at the watermarks: the sweep stays clean and
   the shed/breaker counters show the layer actually engaged. *)
let test_flap_storm_clean () =
  let sweep =
    Chaos.Runner.sweep config ~schedules:[ flap_storm ]
      ~seeds:(List.init 4 (fun i -> i + 1))
  in
  List.iter
    (fun r ->
      check int_c
        (Printf.sprintf "seed %d: no violations" r.Chaos.Runner.seed)
        0
        (List.length r.Chaos.Runner.violations))
    sweep.Chaos.Runner.runs;
  let engaged =
    List.exists
      (fun r ->
        let total = Tropic.Stats.sum r.Chaos.Runner.stats in
        total.sheds > 0 || total.breaker_trips > 0)
      sweep.Chaos.Runner.runs
  in
  check bool_c "overload layer exercised on some seed" true engaged

(* Stripping health scoring, breakers and admission control lets the
   storm queue unboundedly behind the flapping host: the bounded-queue
   invariant must convict. *)
let test_no_breaker_convicted () =
  let config = { config with Chaos.Runner.build = Chaos.Runner.No_breaker } in
  let sweep =
    Chaos.Runner.sweep config ~schedules:[ flap_storm ]
      ~seeds:(List.init 4 (fun i -> i + 1))
  in
  check bool_c "the ablation is convicted" true
    (sweep.Chaos.Runner.violating <> []);
  List.iter
    (fun r ->
      check bool_c "reproducer names the build" true
        (Str_contains.contains (Chaos.Runner.reproducer r) "no-breaker"))
    sweep.Chaos.Runner.violating

let plan_crash =
  match Chaos.Schedule.find "plan-crash" with
  | Some s -> s
  | None -> Alcotest.fail "plan-crash preset missing"

(* Leader and worker crashes landing mid-plan: the executor re-diffs
   after fail-over and converges both goal phases exactly — including the
   capacity swap that needs a staging hop — so the sweep stays clean. *)
let test_plan_crash_clean () =
  let sweep =
    Chaos.Runner.sweep config ~schedules:[ plan_crash ]
      ~seeds:(List.init 3 (fun i -> i + 1))
  in
  List.iter
    (fun r ->
      check int_c
        (Printf.sprintf "seed %d: no violations" r.Chaos.Runner.seed)
        0
        (List.length r.Chaos.Runner.violations);
      check bool_c
        (Printf.sprintf "seed %d: plan made progress" r.Chaos.Runner.seed)
        true (r.Chaos.Runner.committed > 0))
    sweep.Chaos.Runner.runs

(* Dropping the planner's dependency edges makes the capacity swap
   livelock (both migrations abort on the memory constraint every round):
   the plan-converged and exactly-once invariants must convict. *)
let test_no_plan_deps_convicted () =
  let config = { config with Chaos.Runner.build = Chaos.Runner.No_plan_deps } in
  let sweep =
    Chaos.Runner.sweep config ~schedules:[ plan_crash ]
      ~seeds:(List.init 2 (fun i -> i + 1))
  in
  check bool_c "the ablation is convicted" true
    (sweep.Chaos.Runner.violating <> []);
  List.iter
    (fun r ->
      check bool_c "reproducer names the build" true
        (Str_contains.contains (Chaos.Runner.reproducer r) "no-plan-deps");
      check bool_c "a plan-converged violation is reported" true
        (List.exists
           (fun v -> v.Chaos.Invariant.invariant = "plan-converged")
           r.Chaos.Runner.violations))
    sweep.Chaos.Runner.violating

let shard_crash =
  match Chaos.Schedule.find "shard-crash" with
  | Some s -> s
  | None -> Alcotest.fail "shard-crash preset missing"

(* Two shards under the migrate workload: every chain crosses the shard
   boundary, so 2PC runs continuously while shard leaders crash between
   prepare and decision.  With the decision record, recovery resumes
   every in-doubt transaction to its durably decided outcome: the sweep
   stays clean and the 2PC counters show the protocol actually ran. *)
let test_shard_crash_clean () =
  let sweep =
    Chaos.Runner.sweep config ~schedules:[ shard_crash ]
      ~seeds:(List.init 2 (fun i -> i + 1))
  in
  List.iter
    (fun r ->
      check int_c
        (Printf.sprintf "seed %d: no violations" r.Chaos.Runner.seed)
        0
        (List.length r.Chaos.Runner.violations);
      check bool_c
        (Printf.sprintf "seed %d: cross-shard commits happened"
           r.Chaos.Runner.seed)
        true
        ((Tropic.Stats.sum r.Chaos.Runner.stats).twopc_committed > 0))
    sweep.Chaos.Runner.runs;
  let prepared =
    List.exists
      (fun r -> (Tropic.Stats.sum r.Chaos.Runner.stats).twopc_prepares > 0)
      sweep.Chaos.Runner.runs
  in
  check bool_c "participants voted on some seed" true prepared

(* Skipping the decision record turns a coordinator crash between a
   participant's commit and its own into split-brain: the exactly-once
   and convergence invariants must convict. *)
let test_no_2pc_convicted () =
  let config = { config with Chaos.Runner.build = Chaos.Runner.No_2pc } in
  let sweep =
    Chaos.Runner.sweep config ~schedules:[ shard_crash ]
      ~seeds:(List.init 3 (fun i -> i + 1))
  in
  check bool_c "the ablation is convicted" true
    (sweep.Chaos.Runner.violating <> []);
  List.iter
    (fun r ->
      check bool_c "reproducer names the build" true
        (Str_contains.contains (Chaos.Runner.reproducer r) "no-2pc"))
    sweep.Chaos.Runner.violating

let member_churn =
  match Chaos.Schedule.find "member-churn" with
  | Some s -> s
  | None -> Alcotest.fail "member-churn preset missing"

(* Replicas removed and re-added within one leader term, with a delayed-
   egress window keeping the old incarnation's high-match append replies
   in flight across the churn, plus a crash and a partition between
   churns.  With replication session ids the stale echoes are rejected
   (the counters prove the window was actually exercised) and the sweep
   stays clean. *)
let test_member_churn_clean () =
  let sweep =
    Chaos.Runner.sweep config ~schedules:[ member_churn ]
      ~seeds:(List.init 4 (fun i -> i + 1))
  in
  List.iter
    (fun r ->
      check int_c
        (Printf.sprintf "seed %d: no violations" r.Chaos.Runner.seed)
        0
        (List.length r.Chaos.Runner.violations);
      check bool_c
        (Printf.sprintf "seed %d: membership actually churned"
           r.Chaos.Runner.seed)
        true
        (let m = r.Chaos.Runner.membership in
         m.Coord.Types.joins > 0 && m.Coord.Types.leaves > 0
         && m.Coord.Types.catchups > 0))
    sweep.Chaos.Runner.runs;
  let fenced =
    List.exists
      (fun r -> r.Chaos.Runner.membership.Coord.Types.stale_sessions_rejected > 0)
      sweep.Chaos.Runner.runs
  in
  check bool_c "stale session echoes rejected on some seed" true fenced

(* Without session ids the stale echoes are honoured: the leader's
   progress entry for the rejoined node runs ahead of its actual log, and
   the progress-integrity invariant convicts. *)
let test_no_session_id_convicted () =
  let config = { config with Chaos.Runner.build = Chaos.Runner.No_session_ids } in
  let sweep =
    Chaos.Runner.sweep config ~schedules:[ member_churn ]
      ~seeds:(List.init 3 (fun i -> i + 1))
  in
  check bool_c "the ablation is convicted" true
    (sweep.Chaos.Runner.violating <> []);
  List.iter
    (fun r ->
      check bool_c "reproducer names the build" true
        (Str_contains.contains (Chaos.Runner.reproducer r) "no-session-id"))
    sweep.Chaos.Runner.violating

let commit_storm =
  match Chaos.Schedule.find "commit-storm" with
  | Some s -> s
  | None -> Alcotest.fail "commit-storm preset missing"

(* A submission storm into coordination-leader crashes timed inside the
   group-commit window: quorum-gated acks keep every acked submission
   durable, so the stock sweep stays clean — and the flush counters prove
   batches actually formed under the storm. *)
let test_commit_storm_clean () =
  let sweep =
    Chaos.Runner.sweep config ~schedules:[ commit_storm ] ~seeds:[ 1; 2 ]
  in
  List.iter
    (fun r ->
      check int_c
        (Printf.sprintf "seed %d: no violations" r.Chaos.Runner.seed)
        0
        (List.length r.Chaos.Runner.violations);
      check bool_c
        (Printf.sprintf "seed %d: the storm committed work"
           r.Chaos.Runner.seed)
        true
        (r.Chaos.Runner.committed > 0);
      check bool_c
        (Printf.sprintf "seed %d: batches formed" r.Chaos.Runner.seed)
        true
        (let g = r.Chaos.Runner.group in
         g.Coord.Types.flushes > 0 && g.Coord.Types.acks_deferred > 0))
    sweep.Chaos.Runner.runs

(* Acking a submission before its batch reaches quorum turns a leader
   crash inside the window into silent loss: the acked-durable invariant
   must convict the ablation on some seed. *)
let test_unsafe_ack_convicted () =
  let config = { config with Chaos.Runner.build = Chaos.Runner.Unsafe_ack } in
  let sweep =
    Chaos.Runner.sweep config ~schedules:[ commit_storm ]
      ~seeds:(List.init 4 (fun i -> i + 1))
  in
  check bool_c "the ablation is convicted" true
    (sweep.Chaos.Runner.violating <> []);
  check bool_c "an acked-durable violation is reported" true
    (List.exists
       (fun r ->
         List.exists
           (fun v -> v.Chaos.Invariant.invariant = "acked-durable")
           r.Chaos.Runner.violations)
       sweep.Chaos.Runner.violating);
  List.iter
    (fun r ->
      check bool_c "unsafe acks were actually released" true
        (r.Chaos.Runner.group.Coord.Types.unsafe_acks > 0);
      check bool_c "reproducer names the build" true
        (Str_contains.contains (Chaos.Runner.reproducer r) "unsafe-ack"))
    sweep.Chaos.Runner.violating

let test_replay_deterministic () =
  let schedule = List.nth Chaos.Schedule.presets 4 in
  let run () = Chaos.Runner.run_one ~trace:true config ~schedule ~seed:42 in
  let a = run () and b = run () in
  check bool_c "identical traces" true (a.Chaos.Runner.trace = b.Chaos.Runner.trace);
  check bool_c "identical violations" true
    (List.map Chaos.Invariant.violation_to_string a.Chaos.Runner.violations
    = List.map Chaos.Invariant.violation_to_string b.Chaos.Runner.violations);
  check int_c "identical commit count" a.Chaos.Runner.committed
    b.Chaos.Runner.committed;
  check int_c "identical fault count" a.Chaos.Runner.injected
    b.Chaos.Runner.injected

let suite =
  [
    ("schedule: presets well-formed", `Quick, test_schedule_presets);
    ("sweep: stock build is clean", `Slow, test_stock_sweep_clean);
    ("sweep: no-constraints build convicted", `Slow, test_no_constraints_convicted);
    ("sweep: hang-storm clean with watchdog", `Slow, test_hang_storm_clean);
    ("sweep: no-watchdog build convicted", `Slow, test_no_watchdog_convicted);
    ("sweep: flap-storm clean with breakers", `Slow, test_flap_storm_clean);
    ("sweep: no-breaker build convicted", `Slow, test_no_breaker_convicted);
    ("sweep: plan-crash clean with ordered plans", `Slow, test_plan_crash_clean);
    ("sweep: no-plan-deps build convicted", `Slow, test_no_plan_deps_convicted);
    ("sweep: shard-crash clean with 2PC", `Slow, test_shard_crash_clean);
    ("sweep: no-2pc build convicted", `Slow, test_no_2pc_convicted);
    ("sweep: member-churn clean with session ids", `Slow, test_member_churn_clean);
    ("sweep: no-session-id build convicted", `Slow, test_no_session_id_convicted);
    ("sweep: commit-storm clean with group commit", `Slow, test_commit_storm_clean);
    ("sweep: unsafe-ack build convicted", `Slow, test_unsafe_ack_convicted);
    ("replay: same seed, same run", `Slow, test_replay_deterministic);
  ]

let () = Alcotest.run "chaos" [ ("chaos", suite) ]
