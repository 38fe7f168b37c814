(* Tests for lib/trace: the span recorder's primitives, the lifecycle
   validator (including that it catches broken traces), a property test
   running arbitrary workloads under arbitrary fault schedules, and a
   golden-trace regression pinning the normalized dump byte-for-byte. *)

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Recorder primitives (synthetic traces, no platform) *)

let synthetic body =
  let sim = Des.Sim.create ~seed:1 () in
  let tr = Trace.create ~sim () in
  body tr;
  tr

let flags tr name =
  List.exists (fun e -> e.Trace.Check.check = name) (Trace.Check.validate tr)

let test_autoparenting_and_balance () =
  let tr =
    synthetic (fun tr ->
        let root = Trace.begin_span tr ~txn:7 ~cat:"txn" ~name:"spawnVM" () in
        let inner =
          Trace.begin_span tr ~txn:7 ~cat:"controller" ~name:"simulate" ()
        in
        (* Another transaction's span must not parent onto txn 7. *)
        let other = Trace.begin_span tr ~txn:8 ~cat:"txn" ~name:"stopVM" () in
        Trace.end_span tr ~attrs:[ ("outcome", "ok") ] inner;
        Trace.end_span tr other;
        (* No [state=committed] here: that would (correctly) demand a
           covering replay span, which this minimal trace doesn't have. *)
        Trace.end_span tr ~attrs:[ ("state", "aborted") ] root);
  in
  match Trace.spans tr with
  | [ root; inner; other ] ->
    check (Alcotest.option int_c) "inner parents on root" (Some root.Trace.sid)
      inner.Trace.parent;
    check (Alcotest.option int_c) "cross-txn span has no parent" None
      other.Trace.parent;
    check (Alcotest.option string_c) "attr lands" (Some "ok")
      (Trace.attr inner "outcome");
    check int_c "all closed: no violations" 0
      (List.length (Trace.Check.validate tr))
  | other -> Alcotest.failf "expected 3 spans, got %d" (List.length other)

let test_end_named_and_close_all () =
  let tr =
    synthetic (fun tr ->
        let _root = Trace.begin_span tr ~txn:3 ~cat:"txn" ~name:"spawnVM" () in
        let _wait =
          Trace.begin_span tr ~txn:3 ~cat:"lock" ~name:"lock-wait" ()
        in
        (* Close the park span by name, far from its opening site. *)
        (match Trace.end_named tr ~txn:3 ~name:"lock-wait" () with
         | Some d -> check bool_c "duration non-negative" true (d >= 0.)
         | None -> Alcotest.fail "end_named found nothing");
        (* Second close by name is a no-op. *)
        check bool_c "idempotent" true
          (Trace.end_named tr ~txn:3 ~name:"lock-wait" () = None);
        let _straggler =
          Trace.begin_span tr ~txn:3 ~cat:"physical" ~name:"replay" ()
        in
        Trace.close_all tr ~txn:3 ~attrs:[ ("state", "aborted") ] ());
  in
  check int_c "balanced after close_all" 0
    (List.length (Trace.Check.validate tr));
  let root = List.hd (Trace.spans tr) in
  check (Alcotest.option string_c) "close_all attrs hit the root"
    (Some "aborted") (Trace.attr root "state");
  let replay = List.nth (Trace.spans tr) 2 in
  check (Alcotest.option string_c) "straggler marked" (Some "finalize")
    (Trace.attr replay "closed_by")

(* The disabled recorder takes every call and keeps nothing. *)
let test_off_records_nothing () =
  let tr = Trace.off in
  let lane = Trace.fresh_lane tr in
  let root = Trace.begin_span tr ~txn:5 ~cat:"txn" ~name:"spawnVM" () in
  let _wait =
    Trace.begin_span tr ~txn:5 ~lane ~cat:"lock" ~name:"lock-wait" ()
  in
  Trace.instant tr ~txn:5 ~cat:"sched" ~name:"ready" ();
  check bool_c "end_named finds nothing" true
    (Trace.end_named tr ~txn:5 ~name:"lock-wait" () = None);
  Trace.end_span tr ~attrs:[ ("state", "committed") ] root;
  Trace.close_all tr ~txn:5 ~attrs:[ ("state", "committed") ] ();
  check int_c "no spans" 0 (List.length (Trace.spans tr));
  check int_c "no events" 0 (List.length (Trace.events tr));
  check int_c "span_count" 0 (Trace.span_count tr);
  check int_c "validate is empty" 0 (List.length (Trace.Check.validate tr));
  check int_c "empty dump" 0 (List.length (Trace.to_normalized_lines tr))

(* ------------------------------------------------------------------ *)
(* The validator must catch broken traces *)

let test_check_flags_unbalanced () =
  let tr =
    synthetic (fun tr ->
        ignore (Trace.begin_span tr ~txn:1 ~cat:"txn" ~name:"spawnVM" ()))
  in
  check bool_c "balanced flagged" true (flags tr "balanced")

let test_check_flags_undo_under_commit () =
  let tr =
    synthetic (fun tr ->
        let root = Trace.begin_span tr ~txn:1 ~cat:"txn" ~name:"spawnVM" () in
        let replay =
          Trace.begin_span tr ~txn:1 ~cat:"physical" ~name:"replay" ()
        in
        let a =
          Trace.begin_span tr ~txn:1 ~cat:"physical" ~name:"action:createVM"
            ~attrs:[ ("index", "1") ] ()
        in
        Trace.end_span tr ~attrs:[ ("outcome", "ok") ] a;
        let u = Trace.begin_span tr ~txn:1 ~cat:"undo" ~name:"undo" () in
        Trace.end_span tr u;
        Trace.end_span tr
          ~attrs:[ ("actions", "1"); ("outcome", "committed") ]
          replay;
        Trace.end_span tr ~attrs:[ ("state", "committed") ] root);
  in
  check bool_c "committed-no-undo flagged" true (flags tr "committed-no-undo");
  (* The exception: a duplicate execution (re-dispatch around a fail-over)
     may lose the race, abort on already-applied state and undo its own
     progress — undo under the *aborted* replay is tolerated. *)
  let tr =
    synthetic (fun tr ->
        let root = Trace.begin_span tr ~txn:1 ~cat:"txn" ~name:"spawnVM" () in
        let replay =
          Trace.begin_span tr ~txn:1 ~cat:"physical" ~name:"replay" ()
        in
        let a =
          Trace.begin_span tr ~txn:1 ~cat:"physical" ~name:"action:createVM"
            ~attrs:[ ("index", "1") ] ()
        in
        Trace.end_span tr ~attrs:[ ("outcome", "ok") ] a;
        Trace.end_span tr
          ~attrs:[ ("actions", "1"); ("outcome", "committed") ]
          replay;
        let lane = Trace.fresh_lane tr in
        let dup =
          Trace.begin_span tr ~txn:1 ~lane ~cat:"physical" ~name:"replay" ()
        in
        let u = Trace.begin_span tr ~txn:1 ~lane ~cat:"undo" ~name:"undo" () in
        Trace.end_span tr ~attrs:[ ("outcome", "ok") ] u;
        Trace.end_span tr ~attrs:[ ("outcome", "aborted") ] dup;
        Trace.end_span tr ~attrs:[ ("state", "committed") ] root)
  in
  check bool_c "aborted duplicate's undo tolerated" false
    (flags tr "committed-no-undo");
  check int_c "duplicate-dispatch trace is otherwise clean" 0
    (List.length (Trace.Check.validate tr))

let test_check_flags_missing_coverage () =
  let tr =
    synthetic (fun tr ->
        (* Committed root whose replay claims 2 actions but only 1 ok'd. *)
        let root = Trace.begin_span tr ~txn:1 ~cat:"txn" ~name:"spawnVM" () in
        let replay =
          Trace.begin_span tr ~txn:1 ~cat:"physical" ~name:"replay" ()
        in
        let a =
          Trace.begin_span tr ~txn:1 ~cat:"physical" ~name:"action:createVM"
            ~attrs:[ ("index", "1") ] ()
        in
        Trace.end_span tr ~attrs:[ ("outcome", "ok") ] a;
        Trace.end_span tr
          ~attrs:[ ("actions", "2"); ("outcome", "committed") ]
          replay;
        Trace.end_span tr ~attrs:[ ("state", "committed") ] root);
  in
  check bool_c "committed-coverage flagged" true (flags tr "committed-coverage")

let aborted_replay_trace ~undo_indices =
  synthetic (fun tr ->
      let root = Trace.begin_span tr ~txn:1 ~cat:"txn" ~name:"spawnVM" () in
      let replay =
        Trace.begin_span tr ~txn:1 ~cat:"physical" ~name:"replay" ()
      in
      List.iter
        (fun i ->
          let a =
            Trace.begin_span tr ~txn:1 ~cat:"physical"
              ~name:(Printf.sprintf "action:a%d" i)
              ~attrs:[ ("index", string_of_int i) ]
              ()
          in
          Trace.end_span tr ~attrs:[ ("outcome", "ok") ] a)
        [ 1; 2 ];
      (match undo_indices with
       | None -> ()
       | Some indices ->
         let u = Trace.begin_span tr ~txn:1 ~cat:"undo" ~name:"undo" () in
         List.iter
           (fun i ->
             let s =
               Trace.begin_span tr ~txn:1 ~cat:"undo"
                 ~name:(Printf.sprintf "undo:a%d" i)
                 ~attrs:[ ("index", string_of_int i) ]
                 ()
             in
             Trace.end_span tr ~attrs:[ ("outcome", "ok") ] s)
           indices;
         Trace.end_span tr u);
      Trace.end_span tr ~attrs:[ ("outcome", "aborted") ] replay;
      Trace.end_span tr ~attrs:[ ("state", "aborted") ] root)

let test_check_flags_undo_order () =
  check bool_c "undo-missing flagged" true
    (flags (aborted_replay_trace ~undo_indices:None) "undo-missing");
  check bool_c "wrong order flagged" true
    (flags (aborted_replay_trace ~undo_indices:(Some [ 1; 2 ])) "undo-order");
  check int_c "reverse order accepted" 0
    (List.length
       (Trace.Check.validate (aborted_replay_trace ~undo_indices:(Some [ 2; 1 ]))))

(* ------------------------------------------------------------------ *)
(* Property: arbitrary workloads under arbitrary fault schedules always
   produce traces the validator accepts. *)

type op_spec = {
  host : int;
  mem : int;
  fail_start : bool;
  fail_remove : bool;
  stop_after : bool;
}

let op_gen =
  QCheck.Gen.(
    int_range 0 3 >>= fun host ->
    oneofl [ 512; 1024; 2048; 4096 ] >>= fun mem ->
    bool >>= fun fail_start ->
    bool >>= fun fail_remove ->
    bool >>= fun stop_after ->
    return { host; mem; fail_start; fail_remove; stop_after })

let print_workload (seed, ops) =
  Printf.sprintf "seed=%d ops=[%s]" seed
    (String.concat "; "
       (List.map
          (fun o ->
            Printf.sprintf "host%d %dMB%s%s%s" o.host o.mem
              (if o.fail_start then " fail-start" else "")
              (if o.fail_remove then " fail-remove" else "")
              (if o.stop_after then " stop" else ""))
          ops))

let workload_arb =
  QCheck.make ~print:print_workload
    QCheck.Gen.(
      int_range 1 1_000_000 >>= fun seed ->
      list_size (int_range 1 6) op_gen >>= fun ops -> return (seed, ops))

let run_traced_workload (seed, ops) =
  let sim = Des.Sim.create ~seed () in
  let tracer = Trace.create ~sim () in
  let size =
    { Tcloud.Setup.small with Tcloud.Setup.compute_hosts = 4; storage_hosts = 2 }
  in
  let inv = Tcloud.Setup.build ~timing:`Process ~rng:(Des.Sim.rng sim) size in
  let platform =
    Tropic.Platform.create
      {
        Tropic.Platform.default_spec with
        Tropic.Platform.controllers = 3;
        workers = 2;
        mode = Tropic.Platform.Full;
        coord_config =
          {
            Coord.Types.default_config with
            Coord.Types.default_session_timeout = 5.0;
          };
        controller_config = Tcloud.Setup.controller_config;
        controller_session_timeout = 3.0;
        trace = Some tracer;
      }
      inv.Tcloud.Setup.env ~initial_tree:inv.Tcloud.Setup.tree
      ~devices:inv.Tcloud.Setup.devices sim
  in
  Experiments.Common.run_scenario platform (fun () ->
      List.iteri
        (fun k op ->
          let _, compute = inv.Tcloud.Setup.computes.(op.host) in
          let faults =
            Devices.Device.faults (Devices.Compute.device compute)
          in
          if op.fail_start then
            Devices.Fault.fail_next faults ~action:Devices.Schema.act_start_vm;
          if op.fail_remove then
            Devices.Fault.fail_next faults ~action:Devices.Schema.act_remove_vm;
          let vm = Printf.sprintf "q%d" k in
          let host =
            Data.Path.to_string (Tcloud.Setup.compute_path op.host)
          in
          let storage =
            Data.Path.to_string (Tcloud.Setup.storage_path (op.host mod 2))
          in
          let state =
            Tropic.Platform.run_txn platform ~proc:"spawnVM"
              ~args:
                (Tcloud.Procs.spawn_vm_args ~vm ~template:"base.img"
                   ~mem_mb:op.mem ~storage ~host)
          in
          if state = Tropic.Txn.Committed && op.stop_after then
            ignore
              (Tropic.Platform.run_txn platform ~proc:"stopVM"
                 ~args:(Tcloud.Procs.stop_vm_args ~host ~vm)))
        ops);
  match Trace.Check.validate tracer with
  | [] -> true
  | errors ->
    QCheck.Test.fail_reportf "trace invariant violations: %s"
      (String.concat "; " (List.map Trace.Check.error_to_string errors))

let trace_lifecycle_prop =
  QCheck.Test.make ~count:15
    ~name:"arbitrary workload x fault schedule yields a valid trace"
    workload_arb run_traced_workload

(* ------------------------------------------------------------------ *)
(* Golden trace: fixed seed + scenario -> byte-stable normalized dump *)

let golden_script =
  "# golden-trace scenario: commit, constraint abort, fault-driven undo\n\
   hosts 4\n\
   storage 2\n\
   seed 7\n\
   mode full\n\
   spawn g1 0\n\
   expect committed\n\
   spawn toobig 1 9000\n\
   expect aborted\n\
   fail-next 2 startVM\n\
   spawn g2 2\n\
   expect aborted\n\
   spawn g3 1\n\
   expect committed\n\
   stop g1 0\n\
   expect committed\n\
   destroy g1 0\n\
   expect committed\n"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* dune runtest runs with cwd = _build/default/test; dune exec from the
   repo root does not. *)
let fixture name =
  if Sys.file_exists name then name else Filename.concat "test" name

let test_golden_trace () =
  let outcome =
    match Experiments.Scenario.run_script ~record_trace:true golden_script with
    | Ok o -> o
    | Error e -> Alcotest.failf "scenario parse error: %s" e
  in
  check int_c "no failed expectations" 0
    outcome.Experiments.Scenario.failed_expectations;
  let tracer =
    match outcome.Experiments.Scenario.trace with
    | Some tr -> tr
    | None -> Alcotest.fail "record_trace did not attach a tracer"
  in
  check int_c "trace validates" 0 (List.length (Trace.Check.validate tracer));
  let actual = Trace.to_normalized_string tracer in
  let expected = read_file (fixture "golden_trace.txt") in
  if actual <> expected then begin
    let dump =
      Filename.concat (Filename.get_temp_dir_name ()) "golden_trace.actual"
    in
    let oc = open_out dump in
    output_string oc actual;
    close_out oc;
    Alcotest.failf
      "golden trace mismatch (%d bytes actual vs %d expected); actual dump \
       written to %s — inspect the diff and, if the change is intended, \
       refresh test/golden_trace.txt"
      (String.length actual) (String.length expected) dump
  end

(* Tracing never touches the simulation: the golden script runs the same
   with the recorder on and off. *)
let test_tracing_does_not_perturb () =
  let run record_trace =
    match Experiments.Scenario.run_script ~record_trace golden_script with
    | Ok o -> o
    | Error e -> Alcotest.failf "scenario parse error: %s" e
  in
  let traced = run true and untraced = run false in
  check (Alcotest.list string_c) "same transcript"
    traced.Experiments.Scenario.lines untraced.Experiments.Scenario.lines;
  check int_c "same transactions" traced.Experiments.Scenario.transactions
    untraced.Experiments.Scenario.transactions;
  check bool_c "same layers_consistent"
    traced.Experiments.Scenario.layers_consistent
    untraced.Experiments.Scenario.layers_consistent

(* ------------------------------------------------------------------ *)
(* Metrics.Cdf: empty recorders answer n/a, not a placeholder 0 *)

let test_cdf_empty_is_na () =
  let c = Metrics.Cdf.create () in
  check (Alcotest.option (Alcotest.float 1e-9)) "quantile_opt empty" None
    (Metrics.Cdf.quantile_opt c 0.5);
  check string_c "pair empty" "n/a" (Metrics.Cdf.quantile_pair c ~p:0.99);
  Metrics.Cdf.add c 2.0;
  check (Alcotest.option (Alcotest.float 1e-9)) "quantile_opt one sample"
    (Some 2.0)
    (Metrics.Cdf.quantile_opt c 0.5);
  check string_c "pair one sample" "2.00/2.00"
    (Metrics.Cdf.quantile_pair c ~p:0.99)

(* ------------------------------------------------------------------ *)

let suite =
  [
    ("recorder: auto-parenting and balance", `Quick, test_autoparenting_and_balance);
    ("recorder: end_named and close_all", `Quick, test_end_named_and_close_all);
    ("recorder: off records nothing", `Quick, test_off_records_nothing);
    ("check: unbalanced span flagged", `Quick, test_check_flags_unbalanced);
    ("check: undo under committed txn flagged", `Quick, test_check_flags_undo_under_commit);
    ("check: incomplete replay coverage flagged", `Quick, test_check_flags_missing_coverage);
    ("check: undo order enforced", `Quick, test_check_flags_undo_order);
    QCheck_alcotest.to_alcotest trace_lifecycle_prop;
    ("golden: normalized trace is byte-stable", `Quick, test_golden_trace);
    ("golden: tracing does not perturb the run", `Quick, test_tracing_does_not_perturb);
    ("cdf: empty quantiles answer n/a", `Quick, test_cdf_empty_is_na);
  ]

let () = Alcotest.run "trace" [ ("trace", suite) ]
