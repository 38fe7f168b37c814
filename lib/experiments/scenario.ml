type outcome = {
  lines : string list;
  failed_expectations : int;
  transactions : int;
  unexpected_outcomes : int;
  blocked_convergences : int;
  layers_consistent : bool;
  trace : Trace.t option;
}

(* ------------------------------------------------------------------ *)
(* Parsing *)

type header = {
  mutable hosts : int;
  mutable storage : int;
  mutable seed : int;
  mutable full_mode : bool;
  mutable admission_high : int option;
  mutable admission_low : int;
}

type command =
  | Spawn of string * int * int
  | Start of string * int
  | Stop of string * int
  | Migrate of string * int * int
  | Destroy of string * int
  | Vlan_create of int * int * string
  | Vlan_attach of int * int * string
  | Sleep of float
  | Power_cycle of int
  | Fail_next of int * string
  | Kill_leader
  | Repair of int
  | Reload of int
  | Show of int
  | Stats
  | Storm of int * int
  | Converge of string
  | Expect of [ `Committed | `Aborted | `Overload | `Failed ]
  | Expect_converged

let parse_line header line_number line =
  let fail message =
    Error (Printf.sprintf "line %d: %s (%S)" line_number message line)
  in
  let words =
    String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
  in
  let int_of word what =
    match int_of_string_opt word with
    | Some n -> Ok n
    | None -> fail (what ^ " must be an integer")
  in
  let ( let* ) r f = Result.bind r f in
  match words with
  | [] -> Ok None
  | word :: _ when String.length word > 0 && word.[0] = '#' -> Ok None
  | [ "hosts"; n ] ->
    let* n = int_of n "hosts" in
    header.hosts <- n;
    Ok None
  | [ "storage"; n ] ->
    let* n = int_of n "storage" in
    header.storage <- n;
    Ok None
  | [ "seed"; n ] ->
    let* n = int_of n "seed" in
    header.seed <- n;
    Ok None
  | [ "mode"; "full" ] ->
    header.full_mode <- true;
    Ok None
  | [ "admission"; high; low ] ->
    let* high = int_of high "admission high watermark" in
    let* low = int_of low "admission low watermark" in
    if high < 1 || low < 0 || low >= high then
      fail "admission wants 0 <= low < high"
    else begin
      header.admission_high <- Some high;
      header.admission_low <- low;
      Ok None
    end
  | [ "mode"; "logical" ] ->
    header.full_mode <- false;
    Ok None
  | [ "spawn"; vm; host ] ->
    let* host = int_of host "host" in
    Ok (Some (Spawn (vm, host, 1024)))
  | [ "spawn"; vm; host; mem ] ->
    let* host = int_of host "host" in
    let* mem = int_of mem "mem_mb" in
    Ok (Some (Spawn (vm, host, mem)))
  | [ "start"; vm; host ] ->
    let* host = int_of host "host" in
    Ok (Some (Start (vm, host)))
  | [ "stop"; vm; host ] ->
    let* host = int_of host "host" in
    Ok (Some (Stop (vm, host)))
  | [ "migrate"; vm; src; dst ] ->
    let* src = int_of src "src" in
    let* dst = int_of dst "dst" in
    Ok (Some (Migrate (vm, src, dst)))
  | [ "destroy"; vm; host ] ->
    let* host = int_of host "host" in
    Ok (Some (Destroy (vm, host)))
  | [ "vlan-create"; switch; id; name ] ->
    let* switch = int_of switch "switch" in
    let* id = int_of id "vlan id" in
    Ok (Some (Vlan_create (switch, id, name)))
  | [ "vlan-attach"; switch; id; vm ] ->
    let* switch = int_of switch "switch" in
    let* id = int_of id "vlan id" in
    Ok (Some (Vlan_attach (switch, id, vm)))
  | [ "sleep"; seconds ] ->
    (match float_of_string_opt seconds with
     | Some s when s >= 0. -> Ok (Some (Sleep s))
     | Some _ | None -> fail "sleep takes a non-negative number")
  | [ "power-cycle"; host ] ->
    let* host = int_of host "host" in
    Ok (Some (Power_cycle host))
  | [ "fail-next"; host; action ] ->
    let* host = int_of host "host" in
    Ok (Some (Fail_next (host, action)))
  | [ "kill-leader" ] -> Ok (Some Kill_leader)
  | [ "repair"; host ] ->
    let* host = int_of host "host" in
    Ok (Some (Repair host))
  | [ "reload"; host ] ->
    let* host = int_of host "host" in
    Ok (Some (Reload host))
  | [ "show"; host ] ->
    let* host = int_of host "host" in
    Ok (Some (Show host))
  | [ "stats" ] -> Ok (Some Stats)
  | [ "storm"; count; host ] ->
    let* count = int_of count "storm count" in
    let* host = int_of host "host" in
    Ok (Some (Storm (count, host)))
  | [ "converge"; file ] -> Ok (Some (Converge file))
  | [ "expect-converged" ] -> Ok (Some Expect_converged)
  | [ "expect"; "committed" ] -> Ok (Some (Expect `Committed))
  | [ "expect"; "aborted" ] -> Ok (Some (Expect `Aborted))
  | [ "expect"; "overload" ] -> Ok (Some (Expect `Overload))
  | [ "expect"; "failed" ] -> Ok (Some (Expect `Failed))
  | word :: _ -> fail ("unknown command " ^ word)

let parse script =
  let header =
    {
      hosts = 8;
      storage = 2;
      seed = 1;
      full_mode = true;
      admission_high = None;
      admission_low = 0;
    }
  in
  let rec go line_number acc = function
    | [] -> Ok (header, List.rev acc)
    | line :: rest ->
      (match parse_line header line_number line with
       | Error _ as e -> e
       | Ok None -> go (line_number + 1) acc rest
       | Ok (Some cmd) -> go (line_number + 1) (cmd :: acc) rest)
  in
  go 1 [] (String.split_on_char '\n' script)

(* ------------------------------------------------------------------ *)
(* Execution *)

let host_path i = Data.Path.to_string (Tcloud.Setup.compute_path i)
let switch_path i = Data.Path.to_string (Tcloud.Setup.switch_path i)

let run_script ?(record_trace = false) ?(base_dir = ".") script =
  match parse script with
  | Error _ as e -> e
  | Ok (header, commands) ->
    let sim = Des.Sim.create ~seed:header.seed () in
    let tracer = if record_trace then Some (Trace.create ~sim ()) else None in
    let size =
      {
        Tcloud.Setup.small with
        Tcloud.Setup.compute_hosts = header.hosts;
        storage_hosts = header.storage;
        storage_capacity_mb = 5_000_000;
      }
    in
    let inv =
      Tcloud.Setup.build
        ~timing:(if header.full_mode then `Process else `Instant)
        ~rng:(Des.Sim.rng sim) size
    in
    let platform =
      Tropic.Platform.create
        {
          Tropic.Platform.default_spec with
          Tropic.Platform.mode =
            (if header.full_mode then Tropic.Platform.Full
             else Tropic.Platform.Logical_only 0.01);
          workers = 4;
          controller_config =
            {
              Tcloud.Setup.controller_config with
              Tropic.Controller.admission =
                {
                  Tropic.Health.queue_high = header.admission_high;
                  queue_low = header.admission_low;
                };
            };
          controller_session_timeout = 5.0;
          trace = tracer;
        }
        inv.Tcloud.Setup.env ~initial_tree:inv.Tcloud.Setup.tree
        ~devices:inv.Tcloud.Setup.devices sim
    in
    let storage_for host =
      Data.Path.to_string
        (Tcloud.Setup.storage_path (host mod header.storage))
    in
    let lines = ref [] in
    let emit fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
    let failed_expectations = ref 0 in
    let transactions = ref 0 in
    let last_state = ref None in
    (* A transaction that aborts or fails is fine when the script says so
       with a following [expect]; otherwise it counts as unexpected and
       makes the run (and [tcloud_sim]'s exit status) unhealthy. *)
    let unexpected_outcomes = ref 0 in
    (* Goal-state convergence: [converge FILE] drives the platform to the
       declarative model in FILE (path relative to the scenario file); a
       run left blocked — residual drift after the executor gave up — is
       unhealthy on its own, no [expect-converged] needed. *)
    let blocked_convergences = ref 0 in
    let last_converge = ref None in
    let pending_bad = ref None in
    let flush_pending () =
      match !pending_bad with
      | None -> ()
      | Some (label, state) ->
        incr unexpected_outcomes;
        pending_bad := None;
        emit "UNEXPECTED OUTCOME: %s ended %s with no expect" label
          (Tropic.Txn.state_to_string state)
    in
    let txn label proc args =
      flush_pending ();
      incr transactions;
      let state = Tropic.Platform.run_txn platform ~proc ~args in
      last_state := Some state;
      (match state with
       | Tropic.Txn.Aborted _ when Tropic.Txn.is_overload state ->
         (* Load shedding is the platform protecting itself, not an
            orchestration failure: expected even with no [expect]. *)
         ()
       | Tropic.Txn.Aborted _ | Tropic.Txn.Failed _ ->
         pending_bad := Some (label, state)
       | Tropic.Txn.Committed | Tropic.Txn.Initialized | Tropic.Txn.Accepted
       | Tropic.Txn.Deferred | Tropic.Txn.Started ->
         ());
      emit "%-40s -> %s" label (Tropic.Txn.state_to_string state)
    in
    let interpret = function
      | Spawn (vm, host, mem_mb) ->
        txn
          (Printf.sprintf "spawn %s on host%d (%d MB)" vm host mem_mb)
          "spawnVM"
          (Tcloud.Procs.spawn_vm_args ~vm ~template:"base.img" ~mem_mb
             ~storage:(storage_for host) ~host:(host_path host))
      | Start (vm, host) ->
        txn
          (Printf.sprintf "start %s on host%d" vm host)
          "startVM"
          (Tcloud.Procs.start_vm_args ~host:(host_path host) ~vm)
      | Stop (vm, host) ->
        txn
          (Printf.sprintf "stop %s on host%d" vm host)
          "stopVM"
          (Tcloud.Procs.stop_vm_args ~host:(host_path host) ~vm)
      | Migrate (vm, src, dst) ->
        txn
          (Printf.sprintf "migrate %s host%d->host%d" vm src dst)
          "migrateVM"
          (Tcloud.Procs.migrate_vm_args ~src:(host_path src)
             ~dst:(host_path dst) ~vm)
      | Destroy (vm, host) ->
        txn
          (Printf.sprintf "destroy %s on host%d" vm host)
          "destroyVM"
          (Tcloud.Procs.destroy_vm_args ~host:(host_path host)
             ~storage:(storage_for host) ~vm)
      | Vlan_create (switch, id, name) ->
        txn
          (Printf.sprintf "create vlan %d on switch%d" id switch)
          "createVlan"
          (Tcloud.Procs.create_vlan_args ~switch:(switch_path switch)
             ~vlan:id ~name)
      | Vlan_attach (switch, id, vm) ->
        txn
          (Printf.sprintf "attach %s to vlan %d" vm id)
          "attachVmVlan"
          (Tcloud.Procs.attach_vm_vlan_args ~switch:(switch_path switch)
             ~vlan:id ~vm)
      | Sleep seconds ->
        Des.Proc.sleep seconds;
        emit "slept %.1f s (t=%.1f)" seconds (Des.Proc.now ())
      | Power_cycle host ->
        let _, compute = inv.Tcloud.Setup.computes.(host) in
        Devices.Compute.power_cycle compute;
        emit "power-cycled host%d" host
      | Fail_next (host, action) ->
        let _, compute = inv.Tcloud.Setup.computes.(host) in
        Devices.Fault.fail_next
          (Devices.Device.faults (Devices.Compute.device compute))
          ~action;
        emit "armed fault: next %s on host%d fails" action host
      | Kill_leader ->
        let leader = Tropic.Platform.await_leader_controller platform in
        let index = Option.get (Tropic.Platform.leader_index platform) in
        Tropic.Platform.kill_controller platform index;
        emit "killed %s" (Tropic.Controller.name leader)
      | Repair host ->
        Tropic.Platform.repair platform (Tcloud.Setup.compute_path host);
        Des.Proc.sleep 10.;
        emit "repair(host%d) issued" host
      | Reload host ->
        Tropic.Platform.reload platform (Tcloud.Setup.compute_path host);
        Tropic.Platform.reload platform
          (Data.Path.v (storage_for host));
        Des.Proc.sleep 5.;
        emit "reload(host%d + its storage) issued" host
      | Show host ->
        (match
           Data.Tree.subtree
             (Tropic.Platform.logical_tree platform)
             (Tcloud.Setup.compute_path host)
         with
         | Ok node ->
           emit "host%d:\n%s" host
             (String.trim (Format.asprintf "%a" Data.Tree.pp node))
         | Error e -> emit "show host%d: %s" host (Data.Tree.error_to_string e))
      | Stats ->
        let c = Tropic.Platform.await_leader_controller platform in
        let s = Tropic.Controller.stats c in
        emit
          "stats: accepted=%d committed=%d aborted=%d failed=%d deferrals=%d \
           violations=%d sheds=%d breaker=%d/%d/%d"
          s.Tropic.Controller.accepted s.Tropic.Controller.committed
          s.Tropic.Controller.aborted s.Tropic.Controller.failed
          s.Tropic.Controller.deferrals s.Tropic.Controller.violations
          s.Tropic.Controller.sheds s.Tropic.Controller.breaker_trips
          s.Tropic.Controller.breaker_probes s.Tropic.Controller.breaker_closes;
        emit "%s" (Common.phase_summary s)
      | Storm (count, host) ->
        (* Fire-and-forget burst: flood the controller without awaiting, so
           a following awaited command observes admission control. *)
        for i = 1 to count do
          ignore
            (Tropic.Platform.submit platform ~proc:"spawnVM"
               ~args:
                 (Tcloud.Procs.spawn_vm_args
                    ~vm:(Printf.sprintf "storm%d" i)
                    ~template:"base.img" ~mem_mb:256
                    ~storage:(storage_for host) ~host:(host_path host)))
        done;
        emit "storm: %d spawns submitted to host%d" count host
      | Converge file ->
        flush_pending ();
        let path =
          if Filename.is_relative file then Filename.concat base_dir file
          else file
        in
        let contents =
          try
            let ic = open_in path in
            Ok
              (Fun.protect
                 ~finally:(fun () -> close_in ic)
                 (fun () -> really_input_string ic (in_channel_length ic)))
          with Sys_error message -> Error message
        in
        (match Result.bind contents Plan.Model.of_string with
         | Error message ->
           incr blocked_convergences;
           last_converge := None;
           emit "converge %s: %s" file message
         | Ok model ->
           let ctx =
             {
               Plan.Planner.storage_hosts = header.storage;
               template = "base.img";
             }
           in
           let report = Plan.Executor.converge platform ctx ~model in
           last_converge := Some report;
           let submitted =
             List.length
               (List.filter
                  (fun ex -> ex.Plan.Executor.ex_txn <> None)
                  report.Plan.Executor.history)
           in
           transactions := !transactions + submitted;
           if report.Plan.Executor.status <> Plan.Executor.Converged then
             incr blocked_convergences;
           emit "converge %-33s -> %s" file (Plan.Executor.summary report);
           List.iter
             (fun reason -> emit "  unplannable: %s" reason)
             report.Plan.Executor.unplannable;
           List.iter
             (fun change ->
               emit "  residual: %s" (Data.Diff.change_to_string change))
             report.Plan.Executor.residual)
      | Expect_converged ->
        let ok =
          match !last_converge with
          | Some report ->
            report.Plan.Executor.status = Plan.Executor.Converged
          | None -> false
        in
        if not ok then begin
          incr failed_expectations;
          emit "EXPECTATION FAILED: wanted convergence, %s"
            (match !last_converge with
             | Some report -> Plan.Executor.summary report
             | None -> "no converge has run")
        end
      | Expect wanted ->
        (* Whatever was expected, the script acknowledged this outcome —
           a mismatch is already counted as a failed expectation. *)
        pending_bad := None;
        let ok =
          match !last_state, wanted with
          | Some Tropic.Txn.Committed, `Committed -> true
          | Some (Tropic.Txn.Aborted _), `Aborted -> true
          | Some s, `Overload -> Tropic.Txn.is_overload s
          | Some (Tropic.Txn.Failed _), `Failed -> true
          | Some _, (`Committed | `Aborted | `Failed) | None, _ -> false
        in
        if not ok then begin
          incr failed_expectations;
          emit "EXPECTATION FAILED: wanted %s, last transaction was %s"
            (match wanted with
             | `Committed -> "committed"
             | `Aborted -> "aborted"
             | `Overload -> "overload-aborted"
             | `Failed -> "failed")
            (match !last_state with
             | Some s -> Tropic.Txn.state_to_string s
             | None -> "absent")
        end
    in
    Common.run_scenario platform (fun () ->
        List.iter interpret commands;
        flush_pending ());
    Ok
      {
        lines = List.rev !lines;
        failed_expectations = !failed_expectations;
        transactions = !transactions;
        unexpected_outcomes = !unexpected_outcomes;
        blocked_convergences = !blocked_convergences;
        layers_consistent = Common.layers_consistent platform inv;
        trace = tracer;
      }

let run_file ?record_trace path =
  let ic = open_in path in
  let script =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  run_script ?record_trace ~base_dir:(Filename.dirname path) script
