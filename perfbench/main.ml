(* The repository benchmark: one command, three workloads, both clocks.

     python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

   NAME is commit-path, ec2-burst or contended-failover (workloads.ml
   says what each one stresses).  Virtual-clock metrics come from the
   first repetition of the workload, which every later one must reproduce
   exactly.

   --trace 0 reports the end-to-end metrics: it times bare set-ups, runs
   the workload once, and times set-ups again until S seconds of wall
   time have passed (see [measure]).  --trace 1 alternates
   untraced and traced repetitions until S seconds have passed and
   reports the per-layer breakdown.  Its wall-clock costs are those of
   the fastest repetition: on a shared host, the one other load disturbed
   least.  The breakdown holds counters snapshotted at the edges of the
   measured interval, the trace phases of every committed txn, and the
   wall-clock cost of each layer's hot function on the workload's own
   inputs.

   Every output check runs either way.  Metrics print one per line; the
   last line of standard output is one JSON object with the keys correct,
   attempted, failed and metrics.  Exit code 1 means a check failed, 2
   bad usage. *)

let committed r = List.filter Harness.committed r.Harness.samples
let fastest = List.fold_left Float.min Float.infinity

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* Output checks every repetition must pass. *)
let check (w : Workloads.t) ~seed (r : Harness.rep) =
  let ctx = r.Harness.ctx in
  let d = ctx.Harness.d in
  let crashed =
    List.map
      (fun (who, e) ->
        Printf.sprintf "process %s crashed: %s" who (Printexc.to_string e))
      (Des.Sim.failures d.Harness.sim)
  in
  let unresolved =
    List.length
      (List.filter (fun s -> Option.is_none s.Harness.state) r.Harness.samples)
  in
  let trace_errors =
    match d.Harness.tracer with
    | None -> []
    | Some tr ->
      List.map
        (fun e -> "trace: " ^ Trace.Check.error_to_string e)
        (Trace.Check.validate tr)
  in
  crashed
  @ (if unresolved = 0 then []
     else [ Printf.sprintf "%d txns never resolved" unresolved ])
  @ (if ctx.Harness.lateness <= 1e-6 then []
     else
       [ Printf.sprintf "open-loop generator ran %.6f s late"
           ctx.Harness.lateness ])
  @ trace_errors
  @ w.Workloads.check ~seed r

(* Kill to new leader, new leader to first commit, and their sum; zero
   when the workload kills nothing. *)
let recovery (r : Harness.rep) =
  let c = r.Harness.ctx in
  match c.Harness.killed with
  | None -> (0., 0., 0.)
  | Some _ ->
    ( c.Harness.leader_at -. c.Harness.kill_at,
      c.Harness.first_commit_at -. c.Harness.leader_at,
      c.Harness.first_commit_at -. c.Harness.kill_at )

(* Committed history in completion order: a valid serial order, since a
   session awaits each request before its next and conflicting txns
   finish in lock order. *)
let history r =
  committed r
  |> List.stable_sort (fun a b ->
         Float.compare a.Harness.finished b.Harness.finished)
  |> List.map (fun s -> (s.Harness.id, s.Harness.proc, s.Harness.args))

(* What the first untraced repetition leaves behind: its virtual-clock
   results, its counters and the inputs of the layer-cost timings.  The
   deployment itself is dropped, so every repetition starts from the same
   small heap. *)
type base = {
  attempted_n : int;
  lats : float list;  (* committed latencies, virtual s *)
  interval : float;  (* virtual s *)
  c0 : Harness.counters;
  c1 : Harness.counters;
  mean_pending : float;
  recovery : float * float * float;
  history : (int * string * Data.Value.t list) list;
  env : Tropic.Dsl.env;
  initial_tree : Data.Tree.t;
  final_tree : Data.Tree.t;
  heap_mb : float;  (* peak major heap once it is done *)
}

let summarize r =
  let d = r.Harness.ctx.Harness.d in
  {
    attempted_n = List.length r.Harness.samples;
    lats = List.map Harness.latency (committed r);
    interval = r.Harness.t1 -. r.Harness.t0;
    c0 = r.Harness.c0;
    c1 = r.Harness.c1;
    mean_pending = r.Harness.mean_pending;
    recovery = recovery r;
    history = history r;
    env = d.Harness.inv.Tcloud.Setup.env;
    initial_tree = d.Harness.inv.Tcloud.Setup.tree;
    final_tree = Tropic.Platform.logical_tree d.Harness.platform;
    heap_mb = peak_heap_mb ();
  }

(* p50/p99 of each trace phase over the committed txns of a traced
   repetition.  The phases partition each txn's latency exactly, so what
   can fail here is the join: a missing, unclosed or duplicate root span,
   or a negative phase. *)
let phase_rows (traced : Harness.rep) ~flag =
  let c = traced.Harness.ctx in
  match c.Harness.d.Harness.tracer with
  | None -> invalid_arg "phase_rows: untraced repetition"
  | Some tracer ->
    let kill, leader =
      match c.Harness.killed with
      | None -> (Float.infinity, Float.infinity)
      | Some _ -> (c.Harness.kill_at, c.Harness.leader_at)
    in
    let splits, problems =
      Phases.split_all ~kill ~leader tracer (committed traced)
    in
    List.iter flag problems;
    (* Only the few txns in flight at a kill see fail-over time, so that
       phase reports its total rather than quantiles. *)
    List.concat
      (List.mapi
         (fun i name ->
           let xs = List.map (fun (_, p) -> p.(i)) splits in
           if i = Phases.failover then
             [ ("phase.failover_total_s", "s", List.fold_left ( +. ) 0. xs) ]
           else
             [
               (Printf.sprintf "phase.%s_p50_s" name, "s", Stats.quantile xs 0.5);
               (Printf.sprintf "phase.%s_p99_s" name, "s", Stats.quantile xs 0.99);
             ])
         (Array.to_list Phases.names))
    @ [
        ( "trace.spans_per_txn",
          "count",
          float_of_int (Trace.span_count tracer)
          /. float_of_int (List.length splits) );
      ]

type measured = {
  base : base;
  traced_rows : (string * string * float) list;  (* --trace 1 only *)
  reps : int;
  setup : (float * int) option;
      (* wall s of one set-up, and the batches timed; end-to-end runs
         only *)
  walls : float list;  (* wall s of each untraced measured interval *)
  traced_walls : float list;
  attempted : int;
  failed : int;
}

(* Wall microseconds per set-up of 20 ms batches of bare set-ups, timed
   back to back until [until] on the wall clock and for at least [min_s]
   seconds. *)
let time_setups (w : Workloads.t) ~seed ~until ~min_s =
  Gc.compact ();
  let start = Stats.wall () in
  let batches = ref [] in
  while Stats.wall () < until || Stats.wall () -. start < min_s do
    batches :=
      Stats.batch_us ~batch_s:0.02 ~items:1 (fun () ->
          ignore (w.Workloads.deploy ~seed ~traced:false))
      :: !batches
  done;
  !batches

let measure (w : Workloads.t) ~seed ~seconds ~trace ~flag =
  let start = Stats.wall () in
  (* An end-to-end run times set-ups for a quarter of its length, runs the
     workload once for the virtual clock, and times set-ups again until
     its length is up.  Set-up time is the 10th percentile of those
     batches: on a shared host, memory-bound code such as a set-up runs up
     to 1.7x slower in spells of a few seconds, which a low quantile of
     many short batches spread over the whole run steps around; a median,
     or a few long batches, lands in whichever spell the run meets.  A
     traced run spends its whole length on repetitions. *)
  let setup_batches =
    if trace then []
    else time_setups w ~seed ~until:start ~min_s:(seconds /. 4.)
  in
  let base = ref None and traced_rows = ref None and fingerprint = ref "" in
  let walls = ref [] and traced_walls = ref [] in
  let reps = ref 0 and attempted = ref 0 and failed = ref 0 in
  let finished () =
    Option.is_some !base
    && ((not trace)
        || (Option.is_some !traced_rows && Stats.wall () -. start >= seconds))
  in
  while not (finished ()) do
    let traced = trace && !reps mod 2 = 1 in
    Gc.full_major ();
    let d = w.Workloads.deploy ~seed ~traced in
    let r = Harness.run ~drive:(w.Workloads.drive ~seed) d in
    let wall = r.Harness.wall_s in
    incr reps;
    List.iter flag (check w ~seed r);
    let fp = Harness.digest r in
    if !reps = 1 then fingerprint := fp
    else if fp <> !fingerprint then
      flag
        (Printf.sprintf
           "repetition %d differs from the first on the virtual clock" !reps);
    let n = List.length r.Harness.samples in
    attempted := !attempted + n;
    failed := !failed + n - List.length (committed r);
    match (traced, !base) with
    | false, None ->
      walls := wall :: !walls;
      base := Some (summarize r)
    | false, Some _ -> walls := wall :: !walls
    | true, Some _ ->
      traced_walls := wall :: !traced_walls;
      if Option.is_none !traced_rows then
        traced_rows := Some (phase_rows r ~flag)
    | true, None -> invalid_arg "measure: traced repetition came first"
  done;
  let setup =
    if trace then None
    else
      let batches =
        setup_batches
        @ time_setups w ~seed ~until:(start +. seconds) ~min_s:(seconds /. 4.)
      in
      Some (1e-6 *. Stats.quantile batches 0.1, List.length batches)
  in
  {
    base = Option.get !base;
    traced_rows = Option.value !traced_rows ~default:[];
    reps = !reps;
    setup;
    walls = !walls;
    traced_walls = !traced_walls;
    attempted = !attempted;
    failed = !failed;
  }

let end_to_end (w : Workloads.t) m =
  let b = m.base in
  let n = float_of_int (List.length b.lats) in
  let within = List.filter (fun l -> l <= w.Workloads.slo_s) b.lats in
  [
    ("txn_per_s", "1/s", n /. b.interval);
    ("commit_p50_s", "s", Stats.quantile b.lats 0.5);
    ("commit_p99_s", "s", Stats.quantile b.lats 0.99);
    ( "slo_met_share",
      "share",
      float_of_int (List.length within) /. float_of_int b.attempted_n );
  ]
  @ (match m.setup with
     | Some (s, _) -> [ ("setup_s", "s", s) ]
     | None -> [])
  @ [ ("peak_heap_mb", "MB", b.heap_mb) ]

let per_layer m ~flag =
  let b = m.base in
  let c0 = b.c0 and c1 = b.c1 in
  let n = float_of_int (List.length b.lats) in
  let per_txn x y = float_of_int (x - y) /. n in
  let events = c1.Harness.events - c0.Harness.events in
  let costs =
    Layer_cost.measure ~env:b.env ~initial_tree:b.initial_tree
      ~history:b.history ~pending:b.mean_pending
  in
  if not (Data.Tree.equal costs.Layer_cost.final_tree b.final_tree) then
    flag "serial replay of the committed history ends in another tree";
  let election, resume, gap = b.recovery in
  [
    ("wall_ms_per_txn", "ms", 1e3 *. fastest m.walls /. n);
    ("des.events_per_txn", "count", per_txn c1.Harness.events c0.Harness.events);
    ("des.events_per_wall_s", "1/s", float_of_int events /. fastest m.walls);
    ("des.event_us", "us", costs.Layer_cost.event_us);
    ( "coord.appends_per_txn",
      "count",
      per_txn c1.Harness.flushes c0.Harness.flushes );
    ("coord.cmds_per_txn", "count", per_txn c1.Harness.cmds c0.Harness.cmds);
    ( "coord.mean_batch",
      "count",
      float_of_int (c1.Harness.cmds - c0.Harness.cmds)
      /. float_of_int (max 1 (c1.Harness.flushes - c0.Harness.flushes)) );
    ( "coord.io_util",
      "share",
      (c1.Harness.io_busy -. c0.Harness.io_busy) /. b.interval );
    ("coord.store_apply_us", "us", costs.Layer_cost.store_apply_us);
    ( "controller.cpu_util",
      "share",
      (c1.Harness.cpu_busy -. c0.Harness.cpu_busy) /. b.interval );
    ( "sched.deferrals_per_txn",
      "count",
      per_txn c1.Harness.deferrals c0.Harness.deferrals );
    ("sched.wakeups_per_txn", "count", per_txn c1.Harness.wakeups c0.Harness.wakeups);
    ( "sched.spurious_share",
      "share",
      float_of_int (c1.Harness.spurious - c0.Harness.spurious)
      /. float_of_int (max 1 (c1.Harness.wakeups - c0.Harness.wakeups)) );
    ("logical.simulate_us", "us", costs.Layer_cost.simulate_us);
    ("constraints.check_us", "us", costs.Layer_cost.check_us);
    ("mglock.acquire_release_us", "us", costs.Layer_cost.mglock_us);
    ("txn.codec_us", "us", costs.Layer_cost.codec_us);
    ("recovery.election_s", "s", election);
    ("recovery.resume_s", "s", resume);
    ("recovery.failover_gap_s", "s", gap);
    ("trace.overhead", "ratio", fastest m.traced_walls /. fastest m.walls);
  ]
  @ m.traced_rows

let print_rows title rows =
  print_endline title;
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-30s %18.6f %s\n" name v unit)
    rows

let json ~correct ~attempted ~failed rows =
  let metric (name, unit, v) =
    Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric rows))

let main (w : Workloads.t) ~seed ~seconds ~trace =
  let problems = ref [] in
  let flag p = problems := p :: !problems in
  let m = measure w ~seed ~seconds ~trace ~flag in
  let b = m.base in
  let ok = List.length b.lats in
  Printf.printf "perfbench %s, seed %d: %d repetitions of %d txns\n"
    w.Workloads.name seed m.reps b.attempted_n;
  let e2e = end_to_end w m in
  print_rows "end to end" e2e;
  let _, _, gap = b.recovery in
  Printf.printf
    "  (commit_p99_s over %d commits; failed_share %.6f; failover_gap_s \
     %.6f; slo %.1f s)\n"
    ok
    (float_of_int (b.attempted_n - ok) /. float_of_int b.attempted_n)
    gap w.Workloads.slo_s;
  Option.iter
    (fun (_, batches) ->
      Printf.printf "  (setup_s is the p10 of %d batches of set-ups)\n" batches)
    m.setup;
  let rows =
    if trace then begin
      let layer = per_layer m ~flag in
      print_rows "per layer" layer;
      layer
    end
    else e2e
  in
  List.iter
    (fun (name, _, v) ->
      if not (Float.is_finite v) then flag (name ^ " is not a finite number"))
    rows;
  let rows =
    List.map
      (fun (name, unit, v) -> (name, unit, if Float.is_finite v then v else 0.))
      rows
  in
  let problems = List.rev !problems in
  List.iter (fun p -> prerr_endline ("check failed: " ^ p)) problems;
  print_endline
    (json ~correct:(problems = []) ~attempted:m.attempted ~failed:m.failed rows);
  exit (if problems = [] then 0 else 1)

let usage () =
  prerr_endline
    "usage: main.exe --workload commit-path|ec2-burst|contended-failover \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10. in
  let trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: name :: rest ->
      workload := List.find_opt (fun w -> w.Workloads.name = name) Workloads.all;
      if Option.is_none !workload then usage ();
      parse rest
    | "--seed" :: s :: rest ->
      (match int_of_string_opt s with Some s -> seed := s | None -> usage ());
      parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
       | Some s when s > 0. -> seconds := s
       | Some _ | None -> usage ());
      parse rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
      trace := t = "1";
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !workload with
  | None -> usage ()
  | Some w -> (
    try main w ~seed:!seed ~seconds:!seconds ~trace:!trace
    with e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 1)
