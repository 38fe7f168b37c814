(* Experiment driver: one subcommand per table/figure of the paper's
   evaluation, the ablations, and the chaos fault-exploration sweep.
   `tropic_exp all` runs every paper experiment. *)

open Cmdliner

(* TROPIC_LOG=debug|info|warning turns on engine logging (Logs sources
   tropic.controller, tropic.worker, coord.replica, coord.client). *)
let () =
  match Option.map String.lowercase_ascii (Sys.getenv_opt "TROPIC_LOG") with
  | None -> ()
  | Some level ->
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level
      (match level with
       | "debug" -> Some Logs.Debug
       | "info" -> Some Logs.Info
       | "warning" | "warn" -> Some Logs.Warning
       | _ -> Some Logs.Info)

let quick_flag =
  let doc = "Shrink the experiment (fewer hosts, shorter trace window)." in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

(* Every simulation-backed subcommand takes --seed; the default is the
   experiment's historical seed so plain invocations stay reproducible. *)
let seed_arg =
  let doc =
    "Simulation seed threaded into the discrete-event core (defaults to \
     the experiment's historical seed)."
  in
  Arg.(value & opt (some int) None & info [ "seed" ] ~doc)

let effective_seed ~default seed =
  let s = Option.value seed ~default in
  Printf.printf "[effective seed %d]\n%!" s;
  s

(* ------------------------------------------------------------------ *)
(* Subcommands *)

let table1_cmd =
  let run () = Experiments.Table1.print () in
  Cmd.v (Cmd.info "table1" ~doc:"Regenerate Table 1 (spawnVM execution log)")
    Term.(const run $ const ())

let fig3_cmd =
  let run () = Experiments.Perf.print_fig3 () in
  Cmd.v
    (Cmd.info "fig3" ~doc:"Figure 3: EC2 workload, VMs launched per second")
    Term.(const run $ const ())

let multipliers_arg =
  let doc = "Workload multipliers to run (comma-separated)." in
  Arg.(value & opt (list int) [ 1; 2; 3; 4; 5 ] & info [ "multipliers"; "m" ] ~doc)

let fig45_run ?seed quick multipliers =
  let cfg =
    if quick then Experiments.Perf.quick_config
    else Experiments.Perf.default_config
  in
  let cfg =
    { cfg with Experiments.Perf.seed = effective_seed ~default:cfg.Experiments.Perf.seed seed }
  in
  Experiments.Perf.print_fig4_fig5 ~multipliers cfg

let fig4_cmd =
  let run quick multipliers seed = fig45_run ?seed quick multipliers in
  Cmd.v
    (Cmd.info "fig4"
       ~doc:
         "Figures 4 & 5: controller CPU utilization and transaction latency \
          under the 1x-5x EC2 workloads")
    Term.(const run $ quick_flag $ multipliers_arg $ seed_arg)

let fig5_cmd =
  let run quick multipliers seed = fig45_run ?seed quick multipliers in
  Cmd.v
    (Cmd.info "fig5" ~doc:"Alias of fig4 (the two figures share one run)")
    Term.(const run $ quick_flag $ multipliers_arg $ seed_arg)

let safety_cmd =
  let run quick = Experiments.Safety.print (Experiments.Safety.run ~quick ()) in
  Cmd.v
    (Cmd.info "safety"
       ~doc:
         "Section 6.2: constraint-checking overhead (deterministic \
          micro-benchmark, no simulation seed)")
    Term.(const run $ quick_flag)

let robustness_cmd =
  let run quick seed =
    let seed = effective_seed ~default:Experiments.Robustness.default_seed seed in
    Experiments.Robustness.print (Experiments.Robustness.run ~seed ~quick ())
  in
  Cmd.v
    (Cmd.info "robustness"
       ~doc:"Section 6.3: rollback overhead under injected errors")
    Term.(const run $ quick_flag $ seed_arg)

let ha_cmd =
  let session =
    let doc = "Controller session timeout (failure-detection time)." in
    Arg.(value & opt float 10. & info [ "session-timeout" ] ~doc)
  in
  let run quick session_timeout seed =
    let seed = effective_seed ~default:Experiments.Ha.default_seed seed in
    Experiments.Ha.print (Experiments.Ha.run ~seed ~quick ~session_timeout ())
  in
  Cmd.v
    (Cmd.info "ha" ~doc:"Section 6.4: controller fail-over recovery")
    Term.(const run $ quick_flag $ session $ seed_arg)

let trace_arg =
  let doc =
    "Record a per-transaction span trace of the run, write it to $(docv) \
     in Chrome trace-event JSON (load in about://tracing or Perfetto), and \
     validate its lifecycle invariants (non-zero exit on violation)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")

(* Write + validate the span dump a --trace run recorded; exits 1 when the
   recorder saw a lifecycle-invariant violation. *)
let finish_trace trace_file tracer =
  match trace_file, tracer with
  | Some file, Some tracer ->
    let errors = Experiments.Common.dump_trace tracer ~file in
    Printf.printf "trace: %d spans -> %s, %d invariant violations\n%!"
      (Trace.span_count tracer) file (List.length errors);
    List.iter
      (fun e ->
        Printf.printf "  TRACE VIOLATION %s\n%!" (Trace.Check.error_to_string e))
      errors;
    if errors <> [] then exit 1
  | Some _, None | None, _ -> ()

let hosting_cmd =
  let run quick seed trace_file =
    let seed = effective_seed ~default:Experiments.Hosting_run.default_seed seed in
    let result =
      Experiments.Hosting_run.run ~seed ~quick
        ~record_trace:(trace_file <> None) ()
    in
    Experiments.Hosting_run.print result;
    finish_trace trace_file result.Experiments.Hosting_run.trace
  in
  Cmd.v
    (Cmd.info "hosting"
       ~doc:"The hosting-provider workload end-to-end on a TCloud deployment")
    Term.(const run $ quick_flag $ seed_arg $ trace_arg)

let scale_cmd =
  let run quick seed =
    let seed = effective_seed ~default:Experiments.Scale.default_seed seed in
    Experiments.Scale.print (Experiments.Scale.run ~seed ~quick ())
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:"Section 6.1: throughput and memory vs resource count, live heap vs load")
    Term.(const run $ quick_flag $ seed_arg)

let ablation_cmd =
  let run seed =
    let seed = effective_seed ~default:Experiments.Ablation.default_seed seed in
    Experiments.Ablation.print (Experiments.Ablation.run ~seed ())
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Ablations of TROPIC's design choices")
    Term.(const run $ seed_arg)

let converge_cmd =
  let model_arg =
    let doc =
      "Converge on the goal model in $(docv) (s-expression, see \
       lib/plan/model.mli) instead of the built-in two-phase rolling \
       upgrade.  The deployment stays the built-in one: 4 xen hosts, \
       2 stopped VMs pre-installed per host."
    in
    Arg.(value & opt (some file) None & info [ "model" ] ~doc ~docv:"FILE")
  in
  let run quick seed trace_file model_file =
    let goal =
      match model_file with
      | None -> None
      | Some file ->
        let ic = open_in file in
        let contents =
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        (match Plan.Model.of_string contents with
         | Ok model -> Some model
         | Error message ->
           Printf.eprintf "%s: %s\n" file message;
           exit 2)
    in
    let seed = effective_seed ~default:Experiments.Converge.default_seed seed in
    let result =
      Experiments.Converge.run ~seed ~quick
        ~record_trace:(trace_file <> None) ?goal ()
    in
    Experiments.Converge.print result;
    finish_trace trace_file result.Experiments.Converge.trace;
    if not (Experiments.Converge.converged result) then exit 1
  in
  Cmd.v
    (Cmd.info "converge"
       ~doc:
         "Goal-state convergence: diff a declarative model against the \
          logical tree, compile the drift into a dependency-ordered plan \
          of transactions, and execute it to convergence (non-zero exit \
          if any phase is left blocked)")
    Term.(const run $ quick_flag $ seed_arg $ trace_arg $ model_arg)

(* ------------------------------------------------------------------ *)
(* Chaos: seed-sweep fault exploration (lib/chaos) *)

let chaos_schedule_names () =
  String.concat ", "
    (List.map (fun s -> s.Chaos.Schedule.name) Chaos.Schedule.presets)

(* A replay prints at most this many span-dump lines. *)
let span_cap = 400

let print_chaos_result ~with_trace r =
  if with_trace then
    List.iter (fun line -> Printf.printf "  %s\n" line) r.Chaos.Runner.trace;
  let total = Tropic.Stats.sum r.Chaos.Runner.stats in
  Printf.printf
    "seed %4d  %-19s %3d committed / %2d aborted / %2d failed, %2d faults, \
     quiesced at %.0fs, sched: %d deferrals, %d wakeups (%d spurious), \
     robust: %d retries (%d transient, %d timeouts), %s, shed %d, breaker \
     %d trips / %d probes / %d closes\n"
    r.Chaos.Runner.seed r.Chaos.Runner.schedule r.Chaos.Runner.committed
    r.Chaos.Runner.aborted r.Chaos.Runner.failed r.Chaos.Runner.injected
    r.Chaos.Runner.duration
    total.deferrals total.wakeups total.spurious_wakeups total.exec_retries
    total.transient_failures total.timeouts
    (Experiments.Common.signals_summary total)
    total.sheds total.breaker_trips total.breaker_probes total.breaker_closes;
  let m = r.Chaos.Runner.membership in
  if
    m.Coord.Types.joins > 0 || m.Coord.Types.leaves > 0
    || m.Coord.Types.stale_sessions_rejected > 0
    || m.Coord.Types.snapshot_installs > 0
  then
    Printf.printf
      "       membership: %d joins / %d leaves / %d catchups, %d stale \
       sessions rejected, %d snapshot installs\n"
      m.Coord.Types.joins m.Coord.Types.leaves m.Coord.Types.catchups
      m.Coord.Types.stale_sessions_rejected m.Coord.Types.snapshot_installs;
  let g = r.Chaos.Runner.group in
  if g.Coord.Types.flushes > 0 then
    Printf.printf
      "       group-commit: %d flushes, %d cmds batched, acks %d deferred \
       / %d unsafe\n"
      g.Coord.Types.flushes g.Coord.Types.batched_cmds
      g.Coord.Types.acks_deferred g.Coord.Types.unsafe_acks;
  let shards = List.length r.Chaos.Runner.stats in
  if shards > 1 then begin
    Printf.printf "       2pc: %d started / %d committed / %d aborted / %d prepares (%d shards)\n"
      total.twopc_started total.twopc_committed total.twopc_aborted
      total.twopc_prepares shards;
    List.iteri
      (fun sid (s : Tropic.Stats.stats) ->
        Printf.printf
          "       shard %d: %d committed / %d aborted / %d failed, shed %d, \
           %d wakeups, %s, 2pc %d started / %d committed / %d aborted / %d \
           prepares, %s\n"
          sid s.committed s.aborted s.failed s.sheds s.wakeups
          (Experiments.Common.signals_summary s)
          s.twopc_started s.twopc_committed s.twopc_aborted s.twopc_prepares
          (Experiments.Common.phase_summary s))
      r.Chaos.Runner.stats
  end;
  if with_trace then begin
    Printf.printf "  %s\n"
      (Experiments.Common.phase_summary (List.hd r.Chaos.Runner.stats));
    let dump = r.Chaos.Runner.span_dump in
    let shown = List.filteri (fun i _ -> i < span_cap) dump in
    if shown <> [] then begin
      Printf.printf "  span dump (%d spans/events):\n" (List.length dump);
      List.iter (fun line -> Printf.printf "    %s\n" line) shown;
      if List.length dump > span_cap then
        Printf.printf "    ... %d more\n" (List.length dump - span_cap)
    end
  end;
  List.iter
    (fun v -> Printf.printf "  VIOLATION %s\n" (Chaos.Invariant.violation_to_string v))
    r.Chaos.Runner.violations;
  if r.Chaos.Runner.violations <> [] then
    Printf.printf "  reproduce with: %s\n%!" (Chaos.Runner.reproducer r);
  Printf.printf "%!"

let chaos_run quick seeds first_seed schedule_name build_name replay_seed
    expect_violations =
  let build =
    match Chaos.Runner.build_of_string build_name with
    | Ok build -> build
    | Error message -> prerr_endline message; exit 2
  in
  let base_config =
    if quick then Chaos.Runner.quick_config else Chaos.Runner.default_config
  in
  let config = { base_config with Chaos.Runner.build } in
  let schedules =
    match schedule_name with
    | None -> Chaos.Schedule.presets
    | Some name ->
      (match Chaos.Schedule.find name with
       | Some s -> [ s ]
       | None ->
         Printf.eprintf "unknown schedule %S (have: %s)\n" name
           (chaos_schedule_names ());
         exit 2)
  in
  let fail_or_ok violations_found =
    if expect_violations && not violations_found then begin
      Printf.printf
        "expected the sweep to find violations, but it found none\n%!";
      exit 1
    end;
    if (not expect_violations) && violations_found then exit 1
  in
  match replay_seed with
  | Some seed ->
    (* Reproduce one run, with the full injection/transaction trace. *)
    let schedule =
      match schedules with
      | [ s ] -> s
      | _ ->
        prerr_endline "replaying a single --seed requires --schedule NAME";
        exit 2
    in
    Printf.printf "chaos replay: build=%s schedule=%s seed=%d\n"
      (Chaos.Runner.build_to_string build) schedule.Chaos.Schedule.name seed;
    Printf.printf "%s\n" (Chaos.Schedule.describe schedule);
    let r = Chaos.Runner.run_one ~trace:true config ~schedule ~seed in
    print_chaos_result ~with_trace:true r;
    fail_or_ok (r.Chaos.Runner.violations <> [])
  | None ->
    let count = Option.value seeds ~default:(if quick then 10 else 128) in
    let seed_list = List.init count (fun i -> first_seed + i) in
    Printf.printf
      "chaos sweep: build=%s, %d seeds (%d..%d) round-robin over %d \
       schedules (%s)\n%!"
      (Chaos.Runner.build_to_string build) count first_seed
      (first_seed + count - 1) (List.length schedules)
      (String.concat ", "
         (List.map (fun s -> s.Chaos.Schedule.name) schedules));
    let started = Sys.time () in
    let sweep =
      Chaos.Runner.sweep config ~schedules ~seeds:seed_list
        ~progress:(print_chaos_result ~with_trace:false)
    in
    let violating = sweep.Chaos.Runner.violating in
    Printf.printf
      "\n%d runs, %d with violations (%.1f s wall clock)\n"
      (List.length sweep.Chaos.Runner.runs)
      (List.length violating)
      (Sys.time () -. started);
    List.iter
      (fun r -> Printf.printf "  %s\n" (Chaos.Runner.reproducer r))
      violating;
    Printf.printf "%!";
    fail_or_ok (violating <> [])

let chaos_cmd =
  let seeds =
    let doc = "Number of seeds to sweep (default 128, or 10 with --quick)." in
    Arg.(value & opt (some int) None & info [ "seeds" ] ~doc)
  in
  let first_seed =
    let doc = "First seed of the sweep." in
    Arg.(value & opt int 1 & info [ "first-seed" ] ~doc)
  in
  let schedule =
    let doc = "Restrict the sweep to one nemesis schedule." in
    Arg.(value & opt (some string) None & info [ "schedule" ] ~doc)
  in
  let build =
    let doc =
      "Build to exercise: stock, no-constraints, no-guard-locks, \
       no-watchdog, no-breaker, no-plan-deps, no-2pc, no-session-id or \
       unsafe-ack."
    in
    Arg.(value & opt string "stock" & info [ "build" ] ~doc)
  in
  let replay =
    let doc =
      "Replay one seed (requires --schedule) with full event tracing — the \
       form violation reproducers take."
    in
    Arg.(value & opt (some int) None & info [ "seed" ] ~doc)
  in
  let expect =
    let doc =
      "Invert the exit status: succeed only if the sweep finds at least one \
       violation (for validating the harness against broken builds)."
    in
    Arg.(value & flag & info [ "expect-violations" ] ~doc)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Deterministic fault exploration: sweep seeds across nemesis \
          schedules, checking invariants; non-zero exit on any violation")
    Term.(
      const chaos_run $ quick_flag $ seeds $ first_seed $ schedule $ build
      $ replay $ expect)

(* ------------------------------------------------------------------ *)

let all_cmd =
  let run quick =
    Experiments.Table1.print ();
    Experiments.Perf.print_fig3 ();
    fig45_run quick [ 1; 2; 3; 4; 5 ];
    Experiments.Safety.print (Experiments.Safety.run ~quick ());
    Experiments.Robustness.print (Experiments.Robustness.run ~quick ());
    Experiments.Ha.print (Experiments.Ha.run ());
    Experiments.Hosting_run.print (Experiments.Hosting_run.run ~quick ());
    Experiments.Scale.print (Experiments.Scale.run ~quick ());
    Experiments.Ablation.print (Experiments.Ablation.run ())
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment in sequence")
    Term.(const run $ quick_flag)

let main =
  let doc = "Reproduce the TROPIC paper's evaluation (USENIX ATC 2012)" in
  Cmd.group
    (Cmd.info "tropic_exp" ~version:"1.0.0" ~doc)
    [
      table1_cmd; fig3_cmd; fig4_cmd; fig5_cmd; safety_cmd; robustness_cmd;
      ha_cmd; hosting_cmd; scale_cmd; ablation_cmd; converge_cmd; chaos_cmd;
      all_cmd;
    ]

let () = exit (Cmd.eval main)
