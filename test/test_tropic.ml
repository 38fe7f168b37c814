(* Tests for the TROPIC core: unit tests of the engine pieces, plus
   end-to-end transactional orchestration on a full simulated platform. *)

open Tropic

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

module Schema = Devices.Schema

let vm_state_c =
  Alcotest.testable
    (fun fmt s ->
      Format.pp_print_string fmt
        (match s with `Running -> "running" | `Stopped -> "stopped"))
    ( = )

let v_str s = Data.Value.Str s
let host0 = "/vmRoot/host00000"
let host1 = "/vmRoot/host00001"
let storage0 = "/storageRoot/storage00000"

(* ------------------------------------------------------------------ *)
(* Xlog / Txn / Proto codecs *)

let sample_log =
  [
    {
      Xlog.index = 1;
      path = Data.Path.v storage0;
      action = "cloneImage";
      args = [ v_str "base.img"; v_str "vm1.img" ];
      undo = Some "removeImage";
      undo_args = [ v_str "vm1.img" ];
    };
    {
      Xlog.index = 2;
      path = Data.Path.v host0;
      action = "startVM";
      args = [ v_str "vm1" ];
      undo = None;
      undo_args = [];
    };
  ]

let test_xlog_roundtrip () =
  match
    Data.Sexp.Read.of_string Xlog.read
      (Data.Sexp.Print.to_string (fun p -> Xlog.print p sample_log))
  with
  | Ok log ->
    check int_c "length" 2 (List.length log);
    check bool_c "equal" true (log = sample_log)
  | Error reason -> Alcotest.fail reason

let test_txn_roundtrip () =
  let txn =
    Txn.make ~id:42 ~proc:"spawnVM" ~args:[ v_str "vm1"; Data.Value.Int 512 ]
      ~submitted_at:12.5
  in
  txn.Txn.state <- Txn.Started;
  txn.Txn.log <- sample_log;
  txn.Txn.locks <- [ (Data.Path.v host0, Mglock.W) ];
  txn.Txn.start_seq <- Some 7;
  match Txn.of_string (Txn.to_string txn) with
  | Error reason -> Alcotest.fail reason
  | Ok txn' ->
    check int_c "id" 42 txn'.Txn.id;
    check string_c "proc" "spawnVM" txn'.Txn.proc;
    check bool_c "state" true (txn'.Txn.state = Txn.Started);
    check bool_c "log" true (txn'.Txn.log = sample_log);
    check bool_c "locks" true (txn'.Txn.locks = txn.Txn.locks);
    check bool_c "start_seq" true (txn'.Txn.start_seq = Some 7)

(* TERM is a flag on the record: it survives the codec, and a record
   nobody TERMed encodes without it. *)
let test_txn_termed_roundtrip () =
  let txn =
    Txn.make ~id:7 ~proc:"spawnVM" ~args:[ v_str "vm1" ] ~submitted_at:1.
  in
  txn.Txn.state <- Txn.Started;
  txn.Txn.log <- sample_log;
  let unset = Txn.to_string txn in
  check bool_c "no flag in the encoding" false
    (Str_contains.contains unset "termed");
  (match Txn.of_string unset with
   | Ok txn' -> check bool_c "unset decodes unset" false txn'.Txn.termed
   | Error reason -> Alcotest.fail reason);
  txn.Txn.termed <- true;
  match Txn.of_string (Txn.to_string txn) with
  | Ok txn' ->
    check bool_c "set decodes set" true txn'.Txn.termed;
    check bool_c "state kept" true (txn'.Txn.state = Txn.Started)
  | Error reason -> Alcotest.fail reason

let txn_state_strings_prop =
  QCheck.Test.make ~name:"txn state string roundtrip" ~count:100
    QCheck.(
      oneofl
        [ Txn.Initialized; Txn.Accepted; Txn.Deferred; Txn.Started;
          Txn.Committed; Txn.Aborted "x y"; Txn.Failed "z" ])
    (fun state ->
      match Txn.state_of_string (Txn.state_to_string state) with
      | Ok state' -> state = state'
      | Error _ -> false)

let test_proto_roundtrip () =
  let items =
    [
      Proto.Request { proc = "spawnVM"; args = [ v_str "vm1"; Data.Value.Int 3 ] };
      Proto.Result
        { txn_id = 9; outcome = Proto.Phy_committed; exec = Proto.no_exec_stats };
      Proto.Result
        {
          txn_id = 9;
          outcome = Proto.Phy_aborted "disk on fire";
          exec =
            { Proto.retries = 3; transient_failures = 2; timeouts = 1;
              replay_s = 12.25; undo_s = 3.5 };
        };
      Proto.Result
        { txn_id = 9; outcome = Proto.Phy_failed "undo broke"; exec = Proto.no_exec_stats };
      Proto.Control (Proto.Reload (Data.Path.v host0));
      Proto.Control (Proto.Repair (Data.Path.v host0));
      Proto.Control (Proto.Signal (4, Proto.Term));
      Proto.Control (Proto.Signal (5, Proto.Kill));
    ]
  in
  List.iter
    (fun item ->
      match Proto.input_of_string (Proto.input_to_string item) with
      | Ok item' -> check bool_c "roundtrip" true (item = item')
      | Error reason -> Alcotest.fail reason)
    items

let test_seq_of_item_key () =
  (match Proto.seq_of_item_key "/tropic/inputQ/item-0000000042" with
   | Ok 42 -> ()
   | _ -> Alcotest.fail "seq parse");
  match Proto.seq_of_item_key "nodigits" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

let test_deque () =
  let d = Deque.create () in
  Deque.push_back d 1;
  Deque.push_back d 2;
  Deque.push_front d 0;
  check int_c "length" 3 (Deque.length d);
  check (Alcotest.list int_c) "order" [ 0; 1; 2 ] (Deque.to_list d);
  check (Alcotest.option int_c) "pop" (Some 0) (Deque.pop_front d);
  check int_c "removed" 1 (Deque.remove d (fun x -> x = 2));
  check (Alcotest.option int_c) "pop rest" (Some 1) (Deque.pop_front d);
  check (Alcotest.option int_c) "empty" None (Deque.pop_front d)

(* ------------------------------------------------------------------ *)
(* Logical layer: Table 1, constraints, locks, rollback *)

let small_inventory () = Tcloud.Setup.build Tcloud.Setup.small

let spawn_args vm =
  Tcloud.Procs.spawn_vm_args ~vm ~template:"base.img" ~mem_mb:1024
    ~storage:storage0 ~host:host0

let test_table1_spawn_log () =
  let inv = small_inventory () in
  match
    Logical.simulate inv.Tcloud.Setup.env ~tree:inv.Tcloud.Setup.tree
      ~proc:"spawnVM" ~args:(spawn_args "vm1")
  with
  | Error reason -> Alcotest.fail reason
  | Ok { Logical.log; new_tree; actions; _ } ->
    check int_c "five actions (Table 1)" 5 actions;
    let names = List.map (fun (r : Xlog.record) -> r.Xlog.action) log in
    check (Alcotest.list string_c) "action sequence"
      [ "cloneImage"; "exportImage"; "importImage"; "createVM"; "startVM" ]
      names;
    let undos = List.map (fun (r : Xlog.record) -> r.Xlog.undo) log in
    check
      (Alcotest.list (Alcotest.option string_c))
      "undo sequence"
      [ Some "removeImage"; Some "unexportImage"; Some "unimportImage";
        Some "removeVM"; Some "stopVM" ]
      undos;
    (match
       Data.Tree.get_attr new_tree
         (Data.Path.v (host0 ^ "/vm1"))
         Schema.attr_state
     with
     | Some (Data.Value.Str s) -> check string_c "running" "running" s
     | _ -> Alcotest.fail "vm state");
    (* The input tree is untouched (persistence = free rollback). *)
    check bool_c "input tree unchanged" false
      (Data.Tree.mem inv.Tcloud.Setup.tree (Data.Path.v (host0 ^ "/vm1")))

let test_simulation_constraint_violation () =
  let inv = small_inventory () in
  (* 8 GB host: a 9 GB VM violates vm-host-memory. *)
  let args =
    Tcloud.Procs.spawn_vm_args ~vm:"fat" ~template:"base.img" ~mem_mb:9000
      ~storage:storage0 ~host:host0
  in
  match
    Logical.simulate inv.Tcloud.Setup.env ~tree:inv.Tcloud.Setup.tree
      ~proc:"spawnVM" ~args
  with
  | Ok _ -> Alcotest.fail "expected violation"
  | Error reason ->
    check bool_c "mentions the constraint" true
      (Str_contains.contains reason "vm-host-memory")

and test_lock_inference () =
  let inv = small_inventory () in
  match
    Logical.simulate inv.Tcloud.Setup.env ~tree:inv.Tcloud.Setup.tree
      ~proc:"spawnVM" ~args:(spawn_args "vm1")
  with
  | Error reason -> Alcotest.fail reason
  | Ok { Logical.locks; _ } ->
    let has path mode =
      List.exists
        (fun (p, m) -> Data.Path.equal p (Data.Path.v path) && m = mode)
        locks
    in
    check bool_c "W on compute host" true (has host0 Mglock.W);
    check bool_c "W on storage host" true (has storage0 Mglock.W);
    (* The constraint-guard R lock on each constrained host joins the
       host's W: one entry per path, in path order. *)
    check bool_c "one entry per path, in path order" true
      (List.map fst locks = List.sort_uniq Data.Path.compare (List.map fst locks));
    (* A constraint on /vmRoot makes it the highest constrained ancestor
       of the written host: the guard is an R entry of its own there, and
       only with guard locks on. *)
    let env = inv.Tcloud.Setup.env and tree = inv.Tcloud.Setup.tree in
    let vm_root = Data.Path.v "/vmRoot" in
    let kind =
      match Data.Tree.find tree vm_root with
      | Some node -> node.Data.Tree.kind
      | None -> Alcotest.fail "no /vmRoot"
    in
    Constraints.register (Dsl.constraints_of env)
      { Constraints.name = "vm-root-guard"; kind; check = (fun _ _ _ -> Ok ()) };
    let guard_on guard_locks =
      match
        Logical.simulate ~guard_locks env ~tree ~proc:"spawnVM"
          ~args:(spawn_args "vm1")
      with
      | Error reason -> Alcotest.fail reason
      | Ok { Logical.locks; _ } -> List.assoc_opt vm_root locks
    in
    check bool_c "R guard on the constrained ancestor" true
      (guard_on true = Some Mglock.R);
    check bool_c "no guard with guard locks off" true (guard_on false = None)

let test_logical_rollback_restores_tree () =
  let inv = small_inventory () in
  let env = inv.Tcloud.Setup.env in
  match
    Logical.simulate env ~tree:inv.Tcloud.Setup.tree ~proc:"spawnVM"
      ~args:(spawn_args "vm1")
  with
  | Error reason -> Alcotest.fail reason
  | Ok { Logical.new_tree; log; _ } ->
    (match Logical.rollback env ~tree:new_tree ~log with
     | Error (index, reason) -> Alcotest.failf "undo #%d failed: %s" index reason
     | Ok restored ->
       check bool_c "tree restored exactly" true
         (Data.Tree.equal restored inv.Tcloud.Setup.tree))

let test_rollback_irreversible_fails () =
  let inv = small_inventory () in
  let env = inv.Tcloud.Setup.env in
  (* destroyVM ends in irreversible removes. *)
  match
    Logical.simulate env ~tree:inv.Tcloud.Setup.tree ~proc:"spawnVM"
      ~args:(spawn_args "vm1")
  with
  | Error reason -> Alcotest.fail reason
  | Ok { Logical.new_tree; _ } ->
    (match
       Logical.simulate env ~tree:new_tree ~proc:"destroyVM"
         ~args:
           (Tcloud.Procs.destroy_vm_args ~host:host0 ~storage:storage0 ~vm:"vm1")
     with
     | Error reason -> Alcotest.fail reason
     | Ok { Logical.new_tree = destroyed; log; _ } ->
       (match Logical.rollback env ~tree:destroyed ~log with
        | Ok _ -> Alcotest.fail "expected irreversible undo failure"
        | Error (_, reason) ->
          check bool_c "says irreversible" true
            (Str_contains.contains reason "irreversible")))

let test_migrate_hypervisor_rule () =
  let inv = small_inventory () in
  let env = inv.Tcloud.Setup.env in
  (* host0 is xen, host1 is kvm (alternating). *)
  match
    Logical.simulate env ~tree:inv.Tcloud.Setup.tree ~proc:"spawnVM"
      ~args:(spawn_args "vm1")
  with
  | Error reason -> Alcotest.fail reason
  | Ok { Logical.new_tree; _ } ->
    (match
       Logical.simulate env ~tree:new_tree ~proc:"migrateVM"
         ~args:(Tcloud.Procs.migrate_vm_args ~src:host0 ~dst:host1 ~vm:"vm1")
     with
     | Ok _ -> Alcotest.fail "expected hypervisor rule violation"
     | Error reason ->
       check bool_c "mentions hypervisor" true
         (Str_contains.contains reason "hypervisor"));
    (* host2 is xen again: allowed. *)
    (match
       Logical.simulate env ~tree:new_tree ~proc:"migrateVM"
         ~args:
           (Tcloud.Procs.migrate_vm_args ~src:host0 ~dst:"/vmRoot/host00002"
              ~vm:"vm1")
     with
     | Error reason -> Alcotest.fail reason
     | Ok { Logical.new_tree = migrated; _ } ->
       check bool_c "vm moved" true
         (Data.Tree.mem migrated (Data.Path.v "/vmRoot/host00002/vm1"));
       check bool_c "vm gone from source" false
         (Data.Tree.mem migrated (Data.Path.v (host0 ^ "/vm1"))))

let test_constraints_helpers () =
  let inv = small_inventory () in
  let registry = Dsl.constraints_of inv.Tcloud.Setup.env in
  let tree = inv.Tcloud.Setup.tree in
  check bool_c "vmHost constrained" true
    (Constraints.constrained_kind registry Schema.vm_host_kind);
  check bool_c "vmRoot unconstrained" false
    (Constraints.constrained_kind registry Schema.vm_root_kind);
  (match
     Constraints.highest_constrained_ancestor registry tree (Data.Path.v host0)
   with
   | Some p -> check string_c "host is its own guard" host0 (Data.Path.to_string p)
   | None -> Alcotest.fail "no constrained ancestor");
  check int_c "clean tree has no violations" 0
    (List.length (Constraints.check_path registry tree (Data.Path.v host0)))

(* Property: for every reversible procedure, logical rollback is the exact
   inverse of simulation — over random operation sequences applied to an
   evolving tree. *)
let rollback_inverse_prop =
  let gen =
    QCheck.Gen.(list_size (int_range 1 12) (pair (int_bound 3) (int_bound 3)))
  in
  QCheck.Test.make ~name:"rollback inverts simulation" ~count:60
    (QCheck.make gen) (fun choices ->
      let inv =
        Tcloud.Setup.build
          { Tcloud.Setup.small with Tcloud.Setup.prepopulated_vms_per_host = 2 }
      in
      let env = inv.Tcloud.Setup.env in
      let step (tree, counter) (kind, host) =
        let host_s = Printf.sprintf "/vmRoot/host%05d" host in
        let vm = Tcloud.Setup.prepop_vm_name ~host ~index:(kind mod 2) in
        let proc, args =
          match kind with
          | 0 ->
            ( "spawnVM",
              Tcloud.Procs.spawn_vm_args
                ~vm:(Printf.sprintf "pr%d" counter)
                ~template:"base.img" ~mem_mb:512
                ~storage:"/storageRoot/storage00000" ~host:host_s )
          | 1 -> ("startVM", Tcloud.Procs.start_vm_args ~host:host_s ~vm)
          | 2 -> ("stopVM", Tcloud.Procs.stop_vm_args ~host:host_s ~vm)
          | _ ->
            ( "migrateVM",
              Tcloud.Procs.migrate_vm_args ~src:host_s
                ~dst:(Printf.sprintf "/vmRoot/host%05d" ((host + 2) mod 4))
                ~vm )
        in
        match Logical.simulate env ~tree ~proc ~args with
        | Error _ -> (tree, counter + 1) (* invalid in current state: skip *)
        | Ok { Logical.new_tree; log; _ } ->
          (* The round trip must restore the pre-simulation tree exactly. *)
          (match Logical.rollback env ~tree:new_tree ~log with
           | Ok restored when Data.Tree.equal restored tree ->
             (* Keep the effect and continue mutating. *)
             (new_tree, counter + 1)
           | Ok _ -> QCheck.Test.fail_report "rollback restored a different tree"
           | Error (i, reason) ->
             QCheck.Test.fail_report
               (Printf.sprintf "undo #%d failed: %s" i reason))
      in
      ignore (List.fold_left step (inv.Tcloud.Setup.tree, 0) choices);
      true)

(* ------------------------------------------------------------------ *)
(* Physical layer (devices driven directly, no platform) *)

(* A replay outside any platform: a fresh clock and counters, no trace. *)
let execute_direct ~devices log =
  Physical.execute ~devices ~sim:(Des.Sim.create ())
    ~counters:(Physical.fresh_counters ()) ~tracer:(Trace.off, 0, 0) log

let test_physical_execute_commit_and_rollback () =
  let inv = small_inventory () in
  let env = inv.Tcloud.Setup.env in
  let devices = Physical.lookup_of_list inv.Tcloud.Setup.devices in
  let log =
    match
      Logical.simulate env ~tree:inv.Tcloud.Setup.tree ~proc:"spawnVM"
        ~args:(spawn_args "vm1")
    with
    | Ok { Logical.log; _ } -> log
    | Error reason -> Alcotest.fail reason
  in
  let _, compute0 = inv.Tcloud.Setup.computes.(0) in
  let _, storage0_dev = inv.Tcloud.Setup.storages.(0) in
  (* Fail the last action (startVM): everything must be undone. *)
  Devices.Fault.fail_next
    (Devices.Device.faults (Devices.Compute.device compute0))
    ~action:Schema.act_start_vm;
  (match execute_direct ~devices log with
   | Proto.Phy_aborted reason ->
     check bool_c "reports startVM" true
       (Str_contains.contains reason "startVM")
   | Proto.Phy_committed | Proto.Phy_failed _ -> Alcotest.fail "expected abort");
  check (Alcotest.list string_c) "no vm left" []
    (Devices.Compute.vm_names compute0);
  check bool_c "no image left" false
    (List.mem "vm1.img" (Devices.Storage.image_names storage0_dev));
  (* Second run without faults commits. *)
  (match execute_direct ~devices log with
   | Proto.Phy_committed -> ()
   | Proto.Phy_aborted r | Proto.Phy_failed r -> Alcotest.fail r);
  check (Alcotest.option Alcotest.pass) "vm running" (Some `Running)
    (Devices.Compute.vm_state compute0 "vm1")

let test_physical_undo_failure_is_failed () =
  let inv = small_inventory () in
  let env = inv.Tcloud.Setup.env in
  let devices = Physical.lookup_of_list inv.Tcloud.Setup.devices in
  let log =
    match
      Logical.simulate env ~tree:inv.Tcloud.Setup.tree ~proc:"spawnVM"
        ~args:(spawn_args "vm1")
    with
    | Ok { Logical.log; _ } -> log
    | Error reason -> Alcotest.fail reason
  in
  let _, compute0 = inv.Tcloud.Setup.computes.(0) in
  let faults = Devices.Device.faults (Devices.Compute.device compute0) in
  Devices.Fault.fail_next faults ~action:Schema.act_start_vm;
  (* The undo of createVM is removeVM: make it fail too. *)
  Devices.Fault.fail_next faults ~action:Schema.act_remove_vm;
  match execute_direct ~devices log with
  | Proto.Phy_failed reason ->
    check bool_c "mentions undo" true (Str_contains.contains reason "undo")
  | Proto.Phy_committed | Proto.Phy_aborted _ ->
    Alcotest.fail "expected failure"

let test_plan_repair_after_power_cycle () =
  let inv = small_inventory () in
  let env = inv.Tcloud.Setup.env in
  let devices = Physical.lookup_of_list inv.Tcloud.Setup.devices in
  let log, logical_tree =
    match
      Logical.simulate env ~tree:inv.Tcloud.Setup.tree ~proc:"spawnVM"
        ~args:(spawn_args "vm1")
    with
    | Ok { Logical.log; new_tree; _ } -> (log, new_tree)
    | Error reason -> Alcotest.fail reason
  in
  (match execute_direct ~devices log with
   | Proto.Phy_committed -> ()
   | _ -> Alcotest.fail "spawn failed");
  let _, compute0 = inv.Tcloud.Setup.computes.(0) in
  Devices.Compute.power_cycle compute0;
  let plan =
    match
      Recon.drift ~rules:Tcloud.Rules.repair_rules logical_tree
        (Devices.Compute.device compute0)
    with
    | Recon.Differs plan -> plan
    | Recon.Same | Recon.Missing _ -> Alcotest.fail "expected drift"
  in
  (match plan.Recon.steps with
   | [ { Recon.action; args = [ Data.Value.Str "vm1" ]; _ } ] ->
     check string_c "startVM step" Schema.act_start_vm action
   | _ -> Alcotest.fail "expected exactly one startVM step");
  check int_c "nothing unrepairable" 0 (List.length plan.Recon.unrepaired);
  (* Executing the plan re-converges the device. *)
  List.iter
    (fun (step : Recon.step) ->
      match
        Devices.Device.invoke
          (Devices.Compute.device compute0)
          ~action:step.Recon.action ~args:step.Recon.args
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Devices.Device.error_to_string e))
    plan.Recon.steps;
  check (Alcotest.option vm_state_c) "running again" (Some `Running)
    (Devices.Compute.vm_state compute0 "vm1")

(* A hand-built host holding one running VM, and a logical tree that
   mirrors it exactly. *)
let recon_fixture () =
  let ok = function
    | Ok tree -> tree
    | Error e -> Alcotest.fail (Data.Tree.error_to_string e)
  in
  let root = Data.Path.v "/vmRoot/h0" in
  let host = Devices.Compute.create ~root ~mem_mb:4096 ~hypervisor:"xen" () in
  Devices.Compute.preload_vm host ~name:"vm1" ~image:"vm1.img" ~mem_mb:512
    ~state:`Running;
  let device = Devices.Compute.device host in
  let tree =
    ok
      (Data.Tree.insert Data.Tree.empty (Data.Path.v "/vmRoot")
         ~kind:Schema.vm_root_kind ())
  in
  let tree = ok (Data.Tree.insert tree root ~kind:Schema.vm_host_kind ()) in
  let tree =
    ok (Data.Tree.replace_subtree tree root (Devices.Device.export device))
  in
  (host, device, tree)

let drift device tree =
  Recon.drift ~rules:Tcloud.Rules.repair_rules tree device

let expect_unrepairable what = function
  | Recon.Differs { Recon.steps = []; unrepaired = _ :: _ } -> ()
  | Recon.Differs _ | Recon.Same | Recon.Missing _ ->
    Alcotest.failf "%s: expected an unrepairable drift" what

let test_recon_drift_verdicts () =
  let host, device, tree = recon_fixture () in
  (match drift device tree with
   | Recon.Same -> ()
   | Recon.Missing _ | Recon.Differs _ -> Alcotest.fail "mirror: expected Same");
  (match drift device Data.Tree.empty with
   | Recon.Missing (Data.Tree.Missing _) -> ()
   | _ -> Alcotest.fail "empty tree: expected a missing subtree");
  (* A stopped VM the tree says runs: one startVM on the host. *)
  Devices.Compute.force_set_vm_state host "vm1" `Stopped;
  (match drift device tree with
   | Recon.Differs
       {
         Recon.steps = [ { Recon.at; action; args = [ Data.Value.Str "vm1" ] } ];
         unrepaired = [];
       } ->
     check string_c "repair action" Schema.act_start_vm action;
     check string_c "on the host" "/vmRoot/h0" (Data.Path.to_string at)
   | _ -> Alcotest.fail "stopped VM: expected one startVM step");
  (* Nodes that vanished or appeared have no repair rule. *)
  let host, device, tree = recon_fixture () in
  Devices.Compute.force_remove_vm host "vm1";
  expect_unrepairable "removed VM" (drift device tree);
  (* Reload's adopt step takes the device's state as the subtree. *)
  let root = Devices.Device.root device in
  let recon =
    Recon.create ~name:"recon" ~shard:(Shard.singleton ~roots:[ root ])
      ~sim:(Des.Sim.create ()) ~rules:Tcloud.Rules.repair_rules ~deadline:None
      ~constraints:(Constraints.create ())
      ~devices:(Physical.lookup_of_list [ device ])
  in
  let adopted =
    Recon.reload recon ~locks:(Mglock.create ())
      ~sched:(Sched.create ~stats:(Stats.fresh_stats ()) ())
      tree root
  in
  if drift device adopted <> Recon.Same then
    Alcotest.fail "adopt: expected the device's state";
  let host, device, tree = recon_fixture () in
  Devices.Compute.preload_vm host ~name:"vm2" ~image:"vm2.img" ~mem_mb:512
    ~state:`Stopped;
  expect_unrepairable "added VM" (drift device tree)

let test_recon_quarantine () =
  let path = Data.Path.v in
  let names = [ "h0"; "h1"; "h2" ] in
  let roots = List.map (fun n -> path ("/vmRoot/" ^ n)) names in
  let devices =
    List.map
      (fun root ->
        Devices.Compute.device
          (Devices.Compute.create ~root ~mem_mb:4096 ~hypervisor:"xen" ()))
      roots
  in
  (* The tree mirrors every device, so a repair finds nothing to do. *)
  let tree =
    Data.Tree.make_node ~kind:"root"
      ~children:
        [ ( "vmRoot",
            Data.Tree.make_node ~kind:Schema.vm_root_kind
              ~children:(List.combine names (List.map Devices.Device.export devices))
              () ) ]
      ()
  in
  (* Round-robin over two shards: shard 0 owns h0 and h2, shard 1 h1. *)
  let recon =
    Recon.create ~name:"recon" ~shard:(Shard.make ~sid:0 ~shards:2 roots)
      ~sim:(Des.Sim.create ()) ~rules:[] ~deadline:None
      ~constraints:(Constraints.create ())
      ~devices:(Physical.lookup_of_list devices)
  in
  let q = Recon.quarantine recon in
  let listing () = List.map Data.Path.to_string (Recon.Quarantine.to_list q) in
  check bool_c "empty covers nothing" false
    (Recon.Quarantine.covers q (path "/vmRoot/h0"));
  Recon.Quarantine.add q [ path "/vmRoot/h1/vm1" ];
  check (Alcotest.list string_c) "foreign path ignored" [] (listing ());
  Recon.Quarantine.add q
    [ path "/vmRoot/h2"; path "/vmRoot/h0/vm2"; path "/vmRoot/h0/vm1" ];
  check (Alcotest.list string_c) "sorted"
    [ "/vmRoot/h0/vm1"; "/vmRoot/h0/vm2"; "/vmRoot/h2" ]
    (listing ());
  check bool_c "descendant covered" true
    (Recon.Quarantine.covers q (path "/vmRoot/h2/vm7"));
  check bool_c "ancestor not covered" false
    (Recon.Quarantine.covers q (path "/vmRoot/h0"));
  Recon.repair recon tree (path "/vmRoot/h0");
  check (Alcotest.list string_c) "repair lifts every entry below the host"
    [ "/vmRoot/h2" ] (listing ());
  check bool_c "sibling still covered" true
    (Recon.Quarantine.covers q (path "/vmRoot/h2"));
  ignore
    (Recon.reload recon ~locks:(Mglock.create ())
       ~sched:(Sched.create ~stats:(Stats.fresh_stats ()) ())
       tree (path "/vmRoot/h2"));
  check (Alcotest.list string_c) "reload lifts the host" [] (listing ())

(* ------------------------------------------------------------------ *)
(* End-to-end platform tests *)

let quick_coord_config =
  { Coord.Types.default_config with Coord.Types.default_session_timeout = 5.0 }

let quick_spec =
  {
    Platform.default_spec with
    Platform.controllers = 3;
    workers = 2;
    mode = Platform.Full;
    coord_config = quick_coord_config;
    controller_config = Tcloud.Setup.controller_config;
    controller_session_timeout = 3.0;
  }

(* Run [scenario] against a freshly built platform; returns the inventory
   for device-level assertions. *)
let make_platform ?(spec = quick_spec) ?(size = Tcloud.Setup.small)
    ?(seed = 11) () =
  let sim = Des.Sim.create ~seed () in
  let inv = Tcloud.Setup.build ~timing:`Process ~rng:(Des.Sim.rng sim) size in
  let platform =
    Platform.create spec inv.Tcloud.Setup.env ~initial_tree:inv.Tcloud.Setup.tree
      ~devices:inv.Tcloud.Setup.devices sim
  in
  (platform, inv)

let with_platform ?spec ?size ?seed scenario =
  let platform, inv = make_platform ?spec ?size ?seed () in
  Experiments.Common.run_scenario platform (fun () -> scenario platform inv)

let expect_committed what state =
  match state with
  | Txn.Committed -> ()
  | other -> Alcotest.failf "%s: expected committed, got %s" what (Txn.state_to_string other)

let test_e2e_spawn_commits () =
  with_platform (fun platform inv ->
      let state =
        Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "web1")
      in
      expect_committed "spawnVM" state;
      let _, compute0 = inv.Tcloud.Setup.computes.(0) in
      check (Alcotest.option vm_state_c) "vm running on device"
        (Some `Running)
        (Devices.Compute.vm_state compute0 "web1");
      (* Logical view matches the physical export. *)
      let host_path, _ = inv.Tcloud.Setup.computes.(0) in
      let logical =
        match Data.Tree.subtree (Platform.logical_tree platform) host_path with
        | Ok node -> node
        | Error e -> Alcotest.fail (Data.Tree.error_to_string e)
      in
      check bool_c "layers consistent" true
        (Data.Tree.equal logical
           (Devices.Device.export (Devices.Compute.device compute0))))

let test_e2e_violation_aborts_before_devices () =
  with_platform (fun platform inv ->
      let args =
        Tcloud.Procs.spawn_vm_args ~vm:"fat" ~template:"base.img" ~mem_mb:9000
          ~storage:storage0 ~host:host0
      in
      (match Platform.run_txn platform ~proc:"spawnVM" ~args with
       | Txn.Aborted reason ->
         check bool_c "constraint named" true
           (Str_contains.contains reason "vm-host-memory")
       | other -> Alcotest.failf "expected abort, got %s" (Txn.state_to_string other));
      let _, storage_dev = inv.Tcloud.Setup.storages.(0) in
      (* Early detection: the devices never saw a single operation. *)
      check int_c "no device ops" 0
        (Devices.Device.ops (Devices.Storage.device storage_dev)))

(* A VM name that is not a path segment aborts the txn with a reason; no
   controller process dies on it. *)
let test_e2e_malformed_name_aborts () =
  with_platform (fun platform inv ->
      (match Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "bad name") with
       | Txn.Aborted reason ->
         check bool_c "reason names the argument" true
           (Str_contains.contains reason "not a valid name")
       | other -> Alcotest.failf "expected abort, got %s" (Txn.state_to_string other));
      check int_c "no process failed" 0
        (List.length (Des.Sim.failures (Platform.sim platform)));
      let _, storage_dev = inv.Tcloud.Setup.storages.(0) in
      check int_c "no device ops" 0
        (Devices.Device.ops (Devices.Storage.device storage_dev)))

let test_e2e_physical_failure_rolls_back_both_layers () =
  with_platform (fun platform inv ->
      let _, compute0 = inv.Tcloud.Setup.computes.(0) in
      Devices.Fault.fail_next
        (Devices.Device.faults (Devices.Compute.device compute0))
        ~action:Schema.act_start_vm;
      (match Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "vmx") with
       | Txn.Aborted _ -> ()
       | other -> Alcotest.failf "expected abort, got %s" (Txn.state_to_string other));
      check (Alcotest.list string_c) "device clean" []
        (Devices.Compute.vm_names compute0);
      check bool_c "logical clean" false
        (Data.Tree.mem (Platform.logical_tree platform)
           (Data.Path.v (host0 ^ "/vmx")));
      (* The platform stays fully usable. *)
      expect_committed "next spawn"
        (Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "vmy")))

let test_e2e_undo_failure_quarantines_then_reload_recovers () =
  with_platform (fun platform inv ->
      let _, compute0 = inv.Tcloud.Setup.computes.(0) in
      let faults = Devices.Device.faults (Devices.Compute.device compute0) in
      Devices.Fault.fail_next faults ~action:Schema.act_start_vm;
      Devices.Fault.fail_next faults ~action:Schema.act_remove_vm;
      (match Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "vmz") with
       | Txn.Failed _ -> ()
       | other -> Alcotest.failf "expected failed, got %s" (Txn.state_to_string other));
      (* The host is quarantined: further transactions on it abort. *)
      (match Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "vmq") with
       | Txn.Aborted reason ->
         check bool_c "quarantine abort" true
           (Str_contains.contains reason "quarantined")
       | other ->
         Alcotest.failf "expected quarantine abort, got %s"
           (Txn.state_to_string other));
      (* Reload adopts the physical truth and lifts the quarantine. *)
      Platform.reload platform (Data.Path.v host0);
      Platform.reload platform (Data.Path.v storage0);
      Des.Proc.sleep 5.;
      expect_committed "after reload"
        (Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "vmok")))

let test_e2e_concurrent_spawns_memory_safety () =
  with_platform (fun platform _inv ->
      (* Host capacity 8192 MB: eight 1 GB VMs fit, the ninth must abort.
         Submit all nine concurrently. *)
      let ids =
        List.init 9 (fun i ->
            Platform.submit platform ~proc:"spawnVM"
              ~args:(spawn_args (Printf.sprintf "c%d" i)))
      in
      let states = List.map (fun id -> Platform.await platform id) ids in
      let committed =
        List.length (List.filter (fun s -> s = Txn.Committed) states)
      in
      let aborted =
        List.length
          (List.filter
             (function Txn.Aborted _ -> true | _ -> false)
             states)
      in
      check int_c "eight commit" 8 committed;
      check int_c "one aborts on memory" 1 aborted;
      (* No race: the logical view never exceeds capacity. *)
      match Data.Tree.find (Platform.logical_tree platform) (Data.Path.v host0) with
      | Some host ->
        check bool_c "memory within capacity" true
          (Tcloud.Actions.vm_memory_sum host <= 8192)
      | None -> Alcotest.fail "host missing")

let test_e2e_deferred_conflict_then_commit () =
  with_platform (fun platform _inv ->
      (* Two spawns on the same host: serialized by locks, both commit. *)
      let a = Platform.submit platform ~proc:"spawnVM" ~args:(spawn_args "d1") in
      let b = Platform.submit platform ~proc:"spawnVM" ~args:(spawn_args "d2") in
      expect_committed "first" (Platform.await platform a);
      expect_committed "second" (Platform.await platform b);
      let leader = Platform.await_leader_controller platform in
      check bool_c "lock conflicts caused deferrals" true
        ((Controller.stats leader).Controller.deferrals > 0))

(* A signal leaves no key of its own: once a KILLed transaction's worker
   is gone, the store holds no progress cursor, executing marker or phyQ
   item for it. *)
let check_no_leftovers platform =
  let store = Coord.Ensemble.leader_store (Platform.coord platform) in
  List.iter
    (fun prefix ->
      check (Alcotest.list string_c) (prefix ^ " empty") []
        (Coord.Store.children store prefix))
    [ Proto.progress_prefix_ns Proto.default_ns;
      Proto.executing_prefix_ns Proto.default_ns;
      Proto.phy_queue_ns Proto.default_ns ]

let test_e2e_kill_signal_quarantines_then_repair () =
  with_platform (fun platform inv ->
      let txn_id =
        Platform.submit platform ~proc:"spawnVM" ~args:(spawn_args "k1")
      in
      (* Give it time to reach the physical layer (cloneImage takes 4 s),
         then KILL it. *)
      Des.Proc.sleep 6.;
      Platform.signal platform txn_id Proto.Kill;
      (match Platform.await platform txn_id with
       | Txn.Aborted _ | Txn.Failed _ -> ()
       | other ->
         Alcotest.failf "expected abort, got %s" (Txn.state_to_string other));
      Des.Proc.sleep 30.;
      (* The logical layer shows no VM, but the device may hold leftovers:
         reconcile, then the host is usable again. *)
      check bool_c "logical clean" false
        (Data.Tree.mem (Platform.logical_tree platform)
           (Data.Path.v (host0 ^ "/k1")));
      Platform.reload platform (Data.Path.v host0);
      Platform.reload platform (Data.Path.v storage0);
      Des.Proc.sleep 5.;
      ignore inv;
      expect_committed "post-KILL spawn"
        (Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "k2"));
      (* The killed worker read the Failed record, stopped and finished:
         its cursor and marker went with its report. *)
      check_no_leftovers platform)

let kill_to_failure platform txn_id =
  Platform.signal platform txn_id Proto.Kill;
  match Platform.await platform txn_id with
  | Txn.Failed _ -> ()
  | other -> Alcotest.failf "expected failed, got %s" (Txn.state_to_string other)

let phy_items platform =
  List.length
    (Coord.Store.children
       (Coord.Ensemble.leader_store (Platform.coord platform))
       (Proto.phy_queue_ns Proto.default_ns))

(* The killed txn's worker dies mid-action: it never reports, and its
   executing marker leaves with its session.  Its progress cursor goes
   with the KILL's terminal record. *)
let test_e2e_kill_dead_worker_leaves_no_signal () =
  with_platform (fun platform _inv ->
      let txn_id =
        Platform.submit platform ~proc:"spawnVM" ~args:(spawn_args "k1")
      in
      (* cloneImage takes 4 s: the worker is mid-action when it dies. *)
      Des.Proc.sleep 6.;
      Platform.kill_worker platform 0;
      Platform.kill_worker platform 1;
      kill_to_failure platform txn_id;
      Des.Proc.sleep 30.;
      check_no_leftovers platform)

(* The KILL lands while the txn's phyQ item waits: the worker that takes
   it later finds the record Failed and reports nothing. *)
let test_e2e_kill_queued_txn_leaves_no_signal () =
  with_platform (fun platform _inv ->
      Platform.kill_worker platform 0;
      Platform.kill_worker platform 1;
      let txn_id =
        Platform.submit platform ~proc:"spawnVM" ~args:(spawn_args "k1")
      in
      Des.Proc.sleep 2.;
      check int_c "the item waits in the phyQ" 1 (phy_items platform);
      kill_to_failure platform txn_id;
      Platform.restart_worker platform 0;
      Platform.restart_worker platform 1;
      Des.Proc.sleep 30.;
      check int_c "a worker took the item" 0 (phy_items platform);
      check_no_leftovers platform)

let leader_slot platform =
  match Platform.leader_index platform with
  | Some i -> i
  | None -> Alcotest.fail "no leader"

let stored_record platform txn_id =
  match
    Coord.Store.get
      (Coord.Ensemble.leader_store (Platform.coord platform))
      (Txn.record_key_ns Proto.default_ns txn_id)
  with
  | Some (value, _) -> Result.to_option (Txn.of_string value)
  | None -> None

(* The TERM flag is in the record, so a TERM survives the leader that
   handled it: the worker stops at its next action, undoes, and the next
   leader applies the abort. *)
let test_e2e_term_survives_failover () =
  with_platform (fun platform inv ->
      let txn_id =
        Platform.submit platform ~proc:"spawnVM" ~args:(spawn_args "tf")
      in
      (* cloneImage takes 4 s: the worker is inside it. *)
      Des.Proc.sleep 2.;
      Platform.signal platform txn_id Proto.Term;
      let rec await_flag () =
        match stored_record platform txn_id with
        | Some { Txn.termed = true; state = Txn.Started; _ } -> ()
        | Some _ | None ->
          Des.Proc.sleep 0.05;
          await_flag ()
      in
      await_flag ();
      Platform.kill_controller platform (leader_slot platform);
      (match Platform.await platform txn_id with
       | Txn.Aborted reason ->
         check bool_c "aborted by the TERM" true
           (Str_contains.contains reason "terminated by operator")
       | other ->
         Alcotest.failf "expected abort, got %s" (Txn.state_to_string other));
      let _, compute0 = inv.Tcloud.Setup.computes.(0) in
      let _, storage = inv.Tcloud.Setup.storages.(0) in
      check (Alcotest.list string_c) "no VM" []
        (Devices.Compute.vm_names compute0);
      check (Alcotest.list string_c) "clone undone" []
        (List.filter
           (fun image -> not (Devices.Storage.is_template storage image))
           (Devices.Storage.image_names storage));
      check bool_c "logical clean" false
        (Data.Tree.mem (Platform.logical_tree platform)
           (Data.Path.v (host0 ^ "/tf"))))

(* The leader consumes a KILL, and dies with the coordination leader
   before the window holding the Failed record and the control item's
   delete is durable.  Neither landed, so the next leader reads the KILL
   again and applies it. *)
let test_e2e_kill_window_lost_reapplied () =
  with_platform (fun platform _inv ->
      let txn_id =
        Platform.submit platform ~proc:"spawnVM" ~args:(spawn_args "kw")
      in
      Des.Proc.sleep 6.;
      let st = Platform.shard_stats platform 0 in
      let kills = st.Controller.kills in
      let leader = Platform.await_leader_controller platform in
      Platform.signal platform txn_id Proto.Kill;
      (* The window leaves as the KILL is handled, which takes the txn out
         of the leader's table; the coordination leader drops it on
         arrival once crashed. *)
      while List.mem_assoc txn_id (Controller.held leader) do
        Des.Proc.sleep 0.0001
      done;
      Platform.kill_controller platform (leader_slot platform);
      let ensemble = Platform.coord platform in
      let coord_leader = Coord.Ensemble.await_leader ensemble in
      Coord.Ensemble.crash_replica ensemble coord_leader;
      ignore (Coord.Ensemble.await_leader ensemble);
      (match stored_record platform txn_id with
       | Some { Txn.state = Txn.Started; _ } -> ()
       | Some txn ->
         Alcotest.failf "window landed: %s" (Txn.state_to_string txn.Txn.state)
       | None -> Alcotest.fail "record missing");
      Coord.Ensemble.restart_replica ensemble coord_leader;
      (match Platform.await platform txn_id with
       | Txn.Failed reason ->
         check bool_c "killed" true
           (Str_contains.contains reason "killed by operator")
       | other ->
         Alcotest.failf "expected failed, got %s" (Txn.state_to_string other));
      (* Counted by the leader whose window landed, not by the one whose
         window was lost. *)
      check int_c "counted once" (kills + 1) st.Controller.kills;
      Des.Proc.sleep 30.;
      check_no_leftovers platform)

let test_e2e_repair_after_power_cycle () =
  with_platform (fun platform inv ->
      expect_committed "spawn"
        (Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "p1"));
      let _, compute0 = inv.Tcloud.Setup.computes.(0) in
      Devices.Compute.power_cycle compute0;
      check (Alcotest.option vm_state_c) "physically stopped" (Some `Stopped)
        (Devices.Compute.vm_state compute0 "p1");
      Platform.repair platform (Data.Path.v host0);
      Des.Proc.sleep 10.;
      check (Alcotest.option vm_state_c) "repaired to running"
        (Some `Running)
        (Devices.Compute.vm_state compute0 "p1"))

let test_e2e_hung_repair_step_times_out () =
  (* A repair step runs on the leader's main loop.  When it hits a hung
     device it must time out under the workers' per-action deadline, or
     the leader never reads inputQ again and unrelated work stalls. *)
  let spec = { quick_spec with Platform.worker_retry = Physical.default_retry } in
  with_platform ~spec (fun platform inv ->
      expect_committed "spawn"
        (Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "h1"));
      let _, compute0 = inv.Tcloud.Setup.computes.(0) in
      Devices.Compute.power_cycle compute0;
      Devices.Fault.hang_next
        (Devices.Device.faults (Devices.Compute.device compute0))
        ~action:"startVM";
      Platform.repair platform (Data.Path.v host0);
      Des.Proc.sleep 1.;
      expect_committed "spawn on another host"
        (Platform.run_txn platform ~proc:"spawnVM"
           ~args:
             (Tcloud.Procs.spawn_vm_args ~vm:"h2" ~template:"base.img"
                ~mem_mb:1024 ~storage:storage0 ~host:host1));
      check (Alcotest.option vm_state_c) "timed-out step left the drift"
        (Some `Stopped)
        (Devices.Compute.vm_state compute0 "h1");
      (* The hang was one-shot: the next repair heals the host. *)
      Platform.repair platform (Data.Path.v host0);
      Des.Proc.sleep 10.;
      check (Alcotest.option vm_state_c) "repaired on retry" (Some `Running)
        (Devices.Compute.vm_state compute0 "h1"))

let test_e2e_reload_adopts_oob_change () =
  with_platform (fun platform inv ->
      expect_committed "spawn"
        (Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "r1"));
      let _, compute0 = inv.Tcloud.Setup.computes.(0) in
      (* Operator removes the VM behind TROPIC's back. *)
      Devices.Compute.force_set_vm_state compute0 "r1" `Stopped;
      Devices.Compute.force_remove_vm compute0 "r1";
      Platform.reload platform (Data.Path.v host0);
      Des.Proc.sleep 5.;
      check bool_c "logical adopted removal" false
        (Data.Tree.mem (Platform.logical_tree platform)
           (Data.Path.v (host0 ^ "/r1"))))

let test_e2e_periodic_repair_detects_drift () =
  let spec =
    {
      quick_spec with
      Platform.controller_config =
        {
          Tcloud.Setup.controller_config with
          Controller.repair_interval = Some 5.0;
        };
    }
  in
  with_platform ~spec (fun platform inv ->
      expect_committed "spawn"
        (Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "auto1"));
      let _, compute0 = inv.Tcloud.Setup.computes.(0) in
      Devices.Compute.power_cycle compute0;
      check (Alcotest.option vm_state_c) "drifted to stopped" (Some `Stopped)
        (Devices.Compute.vm_state compute0 "auto1");
      (* No operator action: the sweeper detects the divergence and heals. *)
      Des.Proc.sleep 30.;
      check (Alcotest.option vm_state_c) "healed automatically" (Some `Running)
        (Devices.Compute.vm_state compute0 "auto1"))


let test_e2e_destroy_roundtrip () =
  with_platform (fun platform inv ->
      expect_committed "spawn"
        (Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "cycle"));
      expect_committed "destroy"
        (Platform.run_txn platform ~proc:"destroyVM"
           ~args:
             (Tcloud.Procs.destroy_vm_args ~host:host0 ~storage:storage0
                ~vm:"cycle"));
      let _, compute0 = inv.Tcloud.Setup.computes.(0) in
      let _, storage_dev = inv.Tcloud.Setup.storages.(0) in
      check (Alcotest.list string_c) "no vm" [] (Devices.Compute.vm_names compute0);
      check bool_c "image gone" false
        (List.mem "cycle.img" (Devices.Storage.image_names storage_dev));
      (* The name is reusable. *)
      expect_committed "respawn"
        (Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "cycle")))

let test_e2e_network_procedures () =
  with_platform (fun platform inv ->
      let switch = "/netRoot/switch000" in
      expect_committed "create vlan"
        (Platform.run_txn platform ~proc:"createVlan"
           ~args:(Tcloud.Procs.create_vlan_args ~switch ~vlan:42 ~name:"tenant"));
      expect_committed "spawn with network"
        (Platform.run_txn platform ~proc:"spawnVMWithNetwork"
           ~args:
             (Tcloud.Procs.spawn_vm_with_network_args ~vm:"netvm"
                ~template:"base.img" ~mem_mb:512 ~storage:storage0 ~host:host0
                ~switch ~vlan:42));
      let _, switch_dev = inv.Tcloud.Setup.switches.(0) in
      (match Devices.Network.ports_of switch_dev 42 with
       | Some [ "netvm.eth0" ] -> ()
       | Some ports ->
         Alcotest.failf "unexpected ports [%s]" (String.concat "; " ports)
       | None -> Alcotest.fail "vlan missing");
      (* Tear down in reverse; removing a vlan with ports must abort. *)
      (match
         Platform.run_txn platform ~proc:"removeVlan"
           ~args:(Tcloud.Procs.remove_vlan_args ~switch ~vlan:42)
       with
       | Txn.Aborted _ -> ()
       | other -> Alcotest.failf "expected abort, got %s" (Txn.state_to_string other));
      expect_committed "detach"
        (Platform.run_txn platform ~proc:"detachVmVlan"
           ~args:(Tcloud.Procs.detach_vm_vlan_args ~switch ~vlan:42 ~vm:"netvm"));
      expect_committed "remove vlan"
        (Platform.run_txn platform ~proc:"removeVlan"
           ~args:(Tcloud.Procs.remove_vlan_args ~switch ~vlan:42)))

let test_e2e_term_on_queued_txn () =
  with_platform (fun platform _inv ->
      (* Two conflicting spawns: the second sits queued behind the first;
         TERM it before it ever starts. *)
      let a = Platform.submit platform ~proc:"spawnVM" ~args:(spawn_args "t1") in
      let b = Platform.submit platform ~proc:"spawnVM" ~args:(spawn_args "t2") in
      Des.Proc.sleep 3.;
      Platform.signal platform b Proto.Term;
      (match Platform.await platform b with
       | Txn.Aborted reason ->
         check bool_c "aborted by signal" true
           (Str_contains.contains reason "signal")
       | other -> Alcotest.failf "expected abort, got %s" (Txn.state_to_string other));
      expect_committed "first unaffected" (Platform.await platform a))

(* Scheduling platforms: logical-only mode with a fixed 2 s execution
   time, so commit order is purely a scheduling artifact. *)
let sched_spec = { quick_spec with Platform.mode = Platform.Logical_only 2.0 }

let test_e2e_aggressive_scheduling () =
  with_platform ~spec:sched_spec (fun platform _inv ->
      ignore (Platform.await_leader_controller platform);
      Des.Proc.sleep 1.;
      (* Conflicting pair first, independent txn behind them: the
         independent one must NOT wait for the deferred head. *)
      let a = Platform.submit platform ~proc:"spawnVM" ~args:(spawn_args "h1") in
      let b = Platform.submit platform ~proc:"spawnVM" ~args:(spawn_args "h2") in
      let c =
        Platform.submit platform ~proc:"spawnVM"
          ~args:
            (Tcloud.Procs.spawn_vm_args ~vm:"ind" ~template:"base.img"
               ~mem_mb:512 ~storage:"/storageRoot/storage00001"
               ~host:"/vmRoot/host00001")
      in
      let t0 = Des.Proc.now () in
      expect_committed "independent" (Platform.await platform c);
      let independent_done = Des.Proc.now () -. t0 in
      expect_committed "first conflicting" (Platform.await platform a);
      expect_committed "second conflicting" (Platform.await platform b);
      let conflicting_done = Des.Proc.now () -. t0 in
      check bool_c "independent did not wait for the deferred head" true
        (independent_done < conflicting_done))

(* Small VMs so the host's memory never aborts anything: every txn in
   these tests conflicts on host0's lock, nothing else. *)
let small_hot_args vm =
  Tcloud.Procs.spawn_vm_args ~vm ~template:"base.img" ~mem_mb:512
    ~storage:storage0 ~host:host0

(* Submit a spawn and record its commit time from a watcher process. *)
let submit_timed platform commit_times awaiting vm =
  incr awaiting;
  let id = Platform.submit platform ~proc:"spawnVM" ~args:(small_hot_args vm) in
  ignore
    (Des.Proc.spawn ~name:("await-" ^ vm) (Platform.sim platform) (fun () ->
         expect_committed vm (Platform.await platform id);
         Hashtbl.replace commit_times vm (Des.Proc.now ());
         decr awaiting));
  id

let test_e2e_aggressive_no_starvation () =
  (* Regression: under sustained work-conserving scheduling on a hot subtree,
     a long-deferred transaction must not starve.  The victim parks
     behind a holder; rivals keep arriving while it waits.  Wake-on-
     release re-queues woken waiters at the FRONT in ascending txn-id
     order, so the victim beats every rival that arrived after it. *)
  with_platform ~spec:sched_spec ~seed:23 (fun platform _inv ->
      ignore (Platform.await_leader_controller platform);
      Des.Proc.sleep 1.;
      let commit_times = Hashtbl.create 16 in
      let awaiting = ref 0 in
      let submit = submit_timed platform commit_times awaiting in
      ignore (submit "holder");
      Des.Proc.sleep 0.5;
      (* The victim defers behind the holder... *)
      ignore (submit "victim");
      (* ...while rivals keep hammering the same host. *)
      let rivals = 6 in
      for k = 0 to rivals - 1 do
        Des.Proc.sleep 0.4;
        ignore (submit (Printf.sprintf "rival%d" k))
      done;
      while !awaiting > 0 do
        Des.Proc.sleep 0.5
      done;
      let t vm = Hashtbl.find commit_times vm in
      for k = 0 to rivals - 1 do
        check bool_c
          (Printf.sprintf "victim committed before rival%d" k)
          true
          (t "victim" < t (Printf.sprintf "rival%d" k))
      done;
      (* Bounded deferrals: parking + spurious re-parks are at most
         quadratic in the conflicting set; a starvation loop would blow
         far past this. *)
      let n = rivals + 2 in
      let leader = Platform.await_leader_controller platform in
      let deferrals = (Controller.stats leader).Controller.deferrals in
      check bool_c
        (Printf.sprintf "deferrals bounded (%d <= %d)" deferrals (n * n))
        true
        (deferrals <= n * n))

let test_e2e_fifo_preserves_submission_order () =
  (* Conflicting transactions commit in submission order: neither
     wake-on-release nor the arrival drain may let a later arrival
     overtake the parked head. *)
  with_platform ~spec:sched_spec ~seed:29 (fun platform _inv ->
      ignore (Platform.await_leader_controller platform);
      Des.Proc.sleep 1.;
      let commit_times = Hashtbl.create 16 in
      let awaiting = ref 0 in
      let submit = submit_timed platform commit_times awaiting in
      let n = 5 in
      let vms = List.init n (Printf.sprintf "fifo%d") in
      List.iter (fun vm -> ignore (submit vm)) vms;
      while !awaiting > 0 do
        Des.Proc.sleep 0.5
      done;
      let times = List.map (Hashtbl.find commit_times) vms in
      let rec ascending = function
        | a :: (b :: _ as rest) -> a < b && ascending rest
        | _ -> true
      in
      check bool_c "commit order = submission order" true (ascending times))

let test_e2e_controller_failover_no_loss () =
  with_platform (fun platform _inv ->
      (* A stream of transactions; the lead controller dies mid-stream. *)
      let early =
        List.init 3 (fun i ->
            Platform.submit platform ~proc:"spawnVM"
              ~args:(spawn_args (Printf.sprintf "f%d" i)))
      in
      let leader = Platform.await_leader_controller platform in
      let leader_index =
        match
          Array.to_list (Platform.controllers platform)
          |> List.mapi (fun i c -> (i, c))
          |> List.find_opt (fun (_, c) -> c == leader)
        with
        | Some (i, _) -> i
        | None -> Alcotest.fail "leader not found"
      in
      Des.Proc.sleep 2.;
      Platform.kill_controller platform leader_index;
      (* Submit more while the fail-over is in progress. *)
      let late =
        List.init 3 (fun i ->
            Platform.submit platform ~proc:"spawnVM"
              ~args:(spawn_args (Printf.sprintf "g%d" i)))
      in
      List.iteri
        (fun i id ->
          expect_committed (Printf.sprintf "early %d" i)
            (Platform.await platform id))
        early;
      List.iteri
        (fun i id ->
          expect_committed (Printf.sprintf "late %d" i)
            (Platform.await platform id))
        late;
      let new_leader = Platform.await_leader_controller platform in
      check bool_c "leadership moved" true (new_leader != leader))

(* Every controller instance of a shard writes one stats record, so a
   leader killed mid-stream (and never restarted) keeps its commits and
   latency samples in the shard's totals. *)
let test_e2e_failover_keeps_shard_stats () =
  with_platform (fun platform _inv ->
      let submit_all prefix =
        List.init 3 (fun i ->
            Platform.submit platform ~proc:"spawnVM"
              ~args:(spawn_args (Printf.sprintf "%s%d" prefix i)))
      in
      let await_all ids =
        List.iter
          (fun id -> expect_committed "stream txn" (Platform.await platform id))
          ids
      in
      (* The first leader commits the early half itself. *)
      await_all (submit_all "s");
      let leader = Platform.await_leader_controller platform in
      (match Platform.leader_index platform with
       | Some i -> Platform.kill_controller platform i
       | None -> Alcotest.fail "no leader to kill");
      await_all (submit_all "t");
      let successor = Platform.await_leader_controller platform in
      check bool_c "leadership moved" true (successor != leader);
      let st = Platform.shard_stats platform 0 in
      check bool_c "successor writes the shard record" true
        (Controller.stats successor == st);
      check int_c "every commit counted" 6 st.Controller.committed;
      check bool_c "every commit simulated" true
        (Metrics.Cdf.count st.Controller.simulate_lat >= 6))

(* What a standby recovering from the coordination service now would
   hold, as a new leader does: its tree, its txn table (ids and states,
   ascending) and the rebuild's watermark and quarantine set. *)
let standby_recovery platform env =
  let client =
    Coord.Ensemble.connect (Platform.coord platform) ~name:"standby" ()
  in
  let ns = Proto.default_ns and shard = Shard.singleton ~roots:[] in
  let persist = Persist.create ~name:"standby" ~ns ~client in
  Persist.defer persist;
  let checkpoint = Recovery.load_checkpoint client ~ns in
  let records = Recovery.records ~name:"standby" client ~ns in
  let tree = Recovery.replay ~name:"standby" env checkpoint ~shard records in
  let txns = Hashtbl.create 8 in
  let r =
    Recovery.rebuild
      (Recovery.ledger ~name:"standby" ~ns ~shard ~persist ~on_prune:ignore)
      client ~checkpoint ~txns ~locks:(Mglock.create ())
      ~sched:(Sched.create ~stats:(Stats.fresh_stats ()) ())
      ~twopc:
        (Twopc.create ~stats:(Stats.fresh_stats ()) ~name:"standby"
           ~gclient:client ~shard ~timeout:60. (Platform.sim platform)
           ~record:true)
      records
  in
  Coord.Client.close client;
  let held =
    Hashtbl.fold (fun id (txn : Txn.t) acc -> (id, txn.Txn.state) :: acc) txns []
    |> List.sort compare
  in
  (tree, held, r)

(* The leader forgets finished transactions: after hundreds of commits it
   holds only the live ones, and exactly the table a standby recovering
   from the coordination service at that instant rebuilds.  A hung stop
   stays Started and a start of the same VM parks behind it, so the two
   tables are compared while both are non-empty. *)
let test_e2e_leader_holds_only_live_txns () =
  let spec =
    {
      quick_spec with
      Platform.worker_retry =
        { Physical.default_retry with Physical.deadline = Some 10. };
    }
  in
  with_platform ~spec (fun platform inv ->
      let toggle proc =
        let args =
          if proc = "stopVM" then Tcloud.Procs.stop_vm_args ~host:host0 ~vm:"tg"
          else Tcloud.Procs.start_vm_args ~host:host0 ~vm:"tg"
        in
        Platform.submit platform ~proc ~args
      in
      expect_committed "spawn"
        (Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "tg"));
      for _ = 1 to 250 do
        List.iter
          (fun proc -> expect_committed proc (Platform.await platform (toggle proc)))
          [ "stopVM"; "startVM" ]
      done;
      let leader = Platform.await_leader_controller platform in
      check bool_c "500 commits on one leader" true
        ((Controller.stats leader).Controller.committed >= 501);
      check (Alcotest.list int_c) "no finished txn held" []
        (List.map fst (Controller.held leader));
      let _, compute0 = inv.Tcloud.Setup.computes.(0) in
      Devices.Fault.hang_next
        (Devices.Device.faults (Devices.Compute.device compute0))
        ~action:Schema.act_stop_vm;
      let stop = toggle "stopVM" in
      let start = toggle "startVM" in
      Des.Proc.sleep 2.;
      let live = Controller.held leader in
      check (Alcotest.list int_c) "only the live txns held" [ stop; start ]
        (List.map fst live);
      check int_c "every held txn unfinished, every write acked"
        (List.length live) (Controller.unfinished leader);
      (* A standby recovering now: the same ids, the same one Started. *)
      let _, recovered, _ = standby_recovery platform inv.Tcloud.Setup.env in
      let started states =
        List.filter_map
          (fun (id, state) -> if state = Txn.Started then Some id else None)
          states
      in
      check (Alcotest.list int_c) "recovered ids" (List.map fst live)
        (List.map fst recovered);
      check (Alcotest.list int_c) "recovered Started" [ stop ]
        (started recovered);
      check (Alcotest.list int_c) "leader Started" [ stop ] (started live);
      expect_committed "hung stop, rescued" (Platform.await platform stop);
      expect_committed "parked start" (Platform.await platform start);
      check (Alcotest.list int_c) "nothing held at the end" []
        (List.map fst (Controller.held leader)))

(* The leader's settled state: every record write durable, so the store
   holds all it did; with the version of the checkpoint's meta, which a
   checkpoint moves without changing the rest.  [None] while a window is
   in flight. *)
let settled platform leader =
  if Controller.unfinished leader > List.length (Controller.held leader) then
    None
  else
    Some
      ( Controller.tree leader,
        Controller.held leader,
        Controller.quarantined leader,
        Controller.max_request_seq leader,
        Coord.Store.get
          (Coord.Ensemble.leader_store (Platform.coord platform))
          (Proto.checkpoint_meta_key_ns Proto.default_ns) )

(* Checkpoints requested at random times while spawns and stop/start
   toggles run on four hosts: whenever the leader is settled, a standby
   recovering from the store holds the leader's tree, table, quarantine
   set and watermark.  A sample the leader moved past during the
   standby's reads, a checkpoint included, is taken again.  Samples start at 2 s: the first
   leader, elected at about 0.7 s, holds an empty tree until it has
   recovered. *)
let checkpoint_recovery_prop =
  let times lo =
    QCheck.(list_of_size (Gen.int_range 2 6) (float_range lo 40.))
  in
  QCheck.Test.make ~count:8
    ~name:"checkpoints: recovery from the store at any point is the live leader"
    QCheck.(triple (int_bound 1000) (times 0.) (times 2.))
    (fun (seed, checkpoints, samples) ->
      let compared = ref 0 in
      with_platform ~seed (fun platform inv ->
          let env = inv.Tcloud.Setup.env in
          let session h =
            Des.Proc.spawn ~name:(Printf.sprintf "session-%d" h)
              (Platform.sim platform) (fun () ->
                let host = Data.Path.to_string (Tcloud.Setup.compute_path h) in
                let vm = Printf.sprintf "cp%d" h in
                let run proc args = ignore (Platform.run_txn platform ~proc ~args) in
                run "spawnVM"
                  (Tcloud.Procs.spawn_vm_args ~vm ~template:"base.img"
                     ~mem_mb:1024 ~storage:storage0 ~host);
                (* Over the host's memory: a violation, aborted at once. *)
                run "spawnVM"
                  (Tcloud.Procs.spawn_vm_args ~vm:(vm ^ "x") ~template:"base.img"
                     ~mem_mb:9000 ~storage:storage0 ~host);
                for _ = 1 to 3 do
                  run "stopVM" (Tcloud.Procs.stop_vm_args ~host ~vm);
                  run "startVM" (Tcloud.Procs.start_vm_args ~host ~vm)
                done)
          in
          let sessions = List.init 4 session in
          let at times f =
            Des.Proc.spawn (Platform.sim platform) (fun () ->
                List.iter
                  (fun time ->
                    Des.Proc.sleep (Float.max 0. (time -. Des.Proc.now ()));
                    f (Platform.await_leader_controller platform))
                  (List.sort compare times))
          in
          let requests = at checkpoints Controller.request_checkpoint in
          let sampler =
            at samples (fun leader ->
                let rec sample () =
                  match settled platform leader with
                  | None ->
                    Des.Proc.sleep 0.0005;
                    sample ()
                  | Some ((tree, held, quarantine, watermark, _) as before) ->
                    let tree', held', r = standby_recovery platform env in
                    if settled platform leader <> Some before then sample ()
                    else begin
                      incr compared;
                      check bool_c "tree" true (Data.Tree.equal tree tree');
                      (* A park is not written: recovery re-derives it. *)
                      let states =
                        List.map (fun (id, st) ->
                            ( id,
                              match st with
                              | Txn.Deferred -> "accepted"
                              | st -> Txn.state_to_string st ))
                      in
                      check (Alcotest.list (Alcotest.pair int_c string_c))
                        "table" (states held) (states held');
                      check (Alcotest.list string_c) "quarantine"
                        (List.map Data.Path.to_string quarantine)
                        (List.map Data.Path.to_string
                           (List.sort_uniq Data.Path.compare r.Recovery.quarantine));
                      check int_c "watermark" watermark r.Recovery.max_request_seq
                    end
                in
                sample ())
          in
          List.iter
            (fun p -> ignore (Des.Proc.await p))
            (sessions @ [ requests; sampler ]));
      !compared = List.length samples)

(* A leader killed as soon as a checkpoint's prune is durable: the next
   leader starts from the checkpoint alone, with the same tree and
   watermark, and the pruned txns' outcomes stay readable. *)
let test_e2e_kill_after_prune () =
  with_platform (fun platform _inv ->
      let ids =
        List.map
          (fun vm ->
            let id =
              Platform.submit platform ~proc:"spawnVM" ~args:(spawn_args vm)
            in
            expect_committed vm (Platform.await platform id);
            id)
          [ "k1"; "k2"; "k3" ]
      in
      let leader = Platform.await_leader_controller platform in
      let tree = Controller.tree leader
      and watermark = Controller.max_request_seq leader in
      let store () = Coord.Ensemble.leader_store (Platform.coord platform) in
      Controller.request_checkpoint leader;
      while
        Coord.Store.children (store ()) (Proto.txns_prefix_ns Proto.default_ns)
        <> []
      do
        Des.Proc.sleep 0.0001
      done;
      Platform.kill_controller platform (leader_slot platform);
      Des.Proc.sleep 0.5;
      let next = Platform.await_leader_controller platform in
      check bool_c "a new leader" true (next != leader);
      check bool_c "the checkpoint's tree" true
        (Data.Tree.equal tree (Controller.tree next));
      check int_c "the watermark" watermark (Controller.max_request_seq next);
      List.iter
        (fun id -> expect_committed "pruned outcome" (Platform.await platform id))
        ids;
      expect_committed "next spawn"
        (Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "k4")))

(* Error messages of the log source named [src] while [f] runs. *)
let count_errors src f =
  let errors = ref 0 and previous = Logs.reporter () in
  let report s level ~over k msgf =
    if level = Logs.Error && String.equal (Logs.Src.name s) src then incr errors;
    previous.Logs.report s level ~over k msgf
  in
  Logs.set_reporter { Logs.report };
  Fun.protect ~finally:(fun () -> Logs.set_reporter previous) f;
  !errors

(* A spawn Started when a checkpoint is taken fails its last action
   afterwards and rolls back.  Its effects are in the checkpoint's tree,
   so a new leader must undo them once: the VM is gone from its tree
   (not zero times), and no undo fails on an already undone VM (not
   twice). *)
let test_e2e_checkpointed_started_txn_aborts () =
  with_platform (fun platform inv ->
      let _, compute0 = inv.Tcloud.Setup.computes.(0) in
      Devices.Fault.fail_next
        (Devices.Device.faults (Devices.Compute.device compute0))
        ~action:Schema.act_start_vm;
      let id = Platform.submit platform ~proc:"spawnVM" ~args:(spawn_args "cx") in
      let leader = Platform.await_leader_controller platform in
      while not (List.mem id (Controller.started_txns leader)) do
        Des.Proc.sleep 0.01
      done;
      Controller.request_checkpoint leader;
      let client =
        Coord.Ensemble.connect (Platform.coord platform) ~name:"reader" ()
      in
      let rec listed () =
        let c = Recovery.load_checkpoint client ~ns:Proto.default_ns in
        if List.mem id c.Recovery.started then c
        else begin
          Des.Proc.sleep 0.01;
          listed ()
        end
      in
      let c = listed () in
      Coord.Client.close client;
      let vm = Data.Path.v (host0 ^ "/cx") in
      check bool_c "the checkpoint has the VM" true (Data.Tree.mem c.Recovery.tree vm);
      (match Platform.await platform id with
       | Txn.Aborted _ -> ()
       | other -> Alcotest.failf "expected abort, got %s" (Txn.state_to_string other));
      let tree = Controller.tree leader in
      check bool_c "rolled back on the leader" false (Data.Tree.mem tree vm);
      let errors =
        count_errors "tropic.recovery" (fun () ->
            Platform.kill_controller platform (leader_slot platform);
            Des.Proc.sleep 0.5;
            ignore (Platform.await_leader_controller platform))
      in
      let next = Platform.await_leader_controller platform in
      check bool_c "a new leader" true (next != leader);
      check bool_c "undone once on the new leader" true
        (Data.Tree.equal tree (Controller.tree next));
      check int_c "no recovery error" 0 errors)

let test_e2e_reload_refuses_violating_state () =
  with_platform (fun platform inv ->
      let _, compute0 = inv.Tcloud.Setup.computes.(0) in
      (* Out-of-band, the hypervisor ends up overcommitted: 2 x 8 GB VMs on
         an 8 GB host.  Reload must refuse to adopt a state that violates
         the memory constraint (paper §4). *)
      Devices.Compute.preload_vm compute0 ~name:"oob1" ~image:"x.img"
        ~mem_mb:8192 ~state:`Running;
      Devices.Compute.preload_vm compute0 ~name:"oob2" ~image:"y.img"
        ~mem_mb:8192 ~state:`Running;
      Platform.reload platform (Data.Path.v host0);
      Des.Proc.sleep 5.;
      check bool_c "violating state not adopted" false
        (Data.Tree.mem (Platform.logical_tree platform)
           (Data.Path.v (host0 ^ "/oob1")));
      (* A single extra VM fits: that reload succeeds. *)
      Devices.Compute.force_remove_vm compute0 "oob1";
      Devices.Compute.force_remove_vm compute0 "oob2";
      Devices.Compute.preload_vm compute0 ~name:"oob3" ~image:"z.img"
        ~mem_mb:1024 ~state:`Running;
      Platform.reload platform (Data.Path.v host0);
      Des.Proc.sleep 5.;
      check bool_c "legal state adopted" true
        (Data.Tree.mem (Platform.logical_tree platform)
           (Data.Path.v (host0 ^ "/oob3"))))

let test_e2e_failover_preserves_quarantine () =
  with_platform (fun platform inv ->
      let _, compute0 = inv.Tcloud.Setup.computes.(0) in
      let faults = Devices.Device.faults (Devices.Compute.device compute0) in
      Devices.Fault.fail_next faults ~action:Schema.act_start_vm;
      Devices.Fault.fail_next faults ~action:Schema.act_remove_vm;
      (match Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "q1") with
       | Txn.Failed _ -> ()
       | other -> Alcotest.failf "expected failed, got %s" (Txn.state_to_string other));
      (* Crash the leader: the next leader must still refuse the host. *)
      let leader = Platform.await_leader_controller platform in
      let index =
        let found = ref 0 in
        Array.iteri
          (fun i c -> if c == leader then found := i)
          (Platform.controllers platform);
        !found
      in
      Platform.kill_controller platform index;
      (match Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "q2") with
       | Txn.Aborted reason ->
         check bool_c "still quarantined after failover" true
           (Str_contains.contains reason "quarantined")
       | other ->
         Alcotest.failf "expected quarantine abort, got %s"
           (Txn.state_to_string other));
      (* Reconciliation still lifts it. *)
      Platform.reload platform (Data.Path.v host0);
      Platform.reload platform (Data.Path.v storage0);
      Des.Proc.sleep 5.;
      expect_committed "after reload"
        (Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "q3")))

(* A goal-state convergence with the lead controller crashing mid-plan:
   the executor waits out the fail-over, its next round's fresh diff picks
   up whatever the crash left behind, and the system still reaches the
   goal exactly.  A second converge against the reached goal must plan
   nothing (idempotence). *)
let test_e2e_converge_under_failover () =
  with_platform (fun platform inv ->
      let goal =
        {
          Plan.Model.hosts =
            [
              {
                Plan.Model.host_index = 0;
                vms =
                  [
                    { Plan.Model.vm_name = "cvg0"; running = true; mem_mb = 1024 };
                    { Plan.Model.vm_name = "cvg1"; running = false; mem_mb = 512 };
                  ];
              };
            ];
          switches =
            [
              {
                Plan.Model.switch_index = 0;
                vlans =
                  [
                    { Plan.Model.vlan_id = 200; vlan_name = "cvg"; ports = [ "cvg0" ] };
                  ];
              };
            ];
        }
      in
      let ctx = { Plan.Planner.storage_hosts = 2; template = "base.img" } in
      let leader = Platform.await_leader_controller platform in
      let leader_index =
        let found = ref 0 in
        Array.iteri
          (fun i c -> if c == leader then found := i)
          (Platform.controllers platform);
        !found
      in
      ignore
        (Des.Proc.spawn ~name:"mid-plan-crash" (Platform.sim platform)
           (fun () ->
             Des.Proc.sleep 3.;
             Platform.kill_controller platform leader_index));
      let report = Plan.Executor.converge platform ctx ~model:goal in
      check bool_c "converged despite the fail-over" true
        (report.Plan.Executor.status = Plan.Executor.Converged);
      check int_c "no residual drift reported" 0
        (List.length report.Plan.Executor.residual);
      (* A fresh diff against the leader's tree agrees. *)
      (match Plan.Model.diff goal ~actual:(Platform.logical_tree platform) with
       | Ok [] -> ()
       | Ok changes -> Alcotest.failf "%d residual changes" (List.length changes)
       | Error e -> Alcotest.fail e);
      (* The devices agree too. *)
      let _, compute0 = inv.Tcloud.Setup.computes.(0) in
      check (Alcotest.option vm_state_c) "cvg0 running" (Some `Running)
        (Devices.Compute.vm_state compute0 "cvg0");
      check (Alcotest.option vm_state_c) "cvg1 stopped" (Some `Stopped)
        (Devices.Compute.vm_state compute0 "cvg1");
      let new_leader = Platform.await_leader_controller platform in
      check bool_c "leadership moved" true (new_leader != leader);
      (* Converging again plans no steps at all. *)
      let again = Plan.Executor.converge platform ctx ~model:goal in
      check bool_c "reconverge is a no-op" true
        (again.Plan.Executor.status = Plan.Executor.Converged
        && again.Plan.Executor.history = []))

(* ------------------------------------------------------------------ *)
(* Run driver: Platform.run stops at quiescence *)

(* A body that submits and forgets returns while its transactions are
   still in flight; the run keeps going until every one is terminal and
   stops there, far below the horizon. *)
let test_run_drains_fire_and_forget () =
  let platform, _inv = make_platform () in
  let ids = ref [] in
  let quiesced =
    Platform.run platform (fun () ->
        ids :=
          List.init 4 (fun k ->
              Platform.submit platform ~proc:"spawnVM"
                ~args:(spawn_args (Printf.sprintf "ff%d" k)));
        check bool_c "still busy when the body returns" false
          (Platform.quiescent platform))
  in
  check bool_c "stopped at quiescence" true quiesced;
  check bool_c "far below the horizon" true
    (Des.Sim.now (Platform.sim platform) < 600.);
  Experiments.Common.run_scenario platform (fun () ->
      List.iter
        (fun id ->
          match Platform.txn_state platform id with
          | Some state when Txn.is_terminal state -> ()
          | Some state ->
            Alcotest.failf "txn %d still %s" id (Txn.state_to_string state)
          | None -> Alcotest.failf "txn %d has no record" id)
        !ids)

(* [quick_spec] runs without the watchdog and without action deadlines,
   so a hung action never drains: the run goes to its horizon and does
   not report quiescence. *)
let test_run_hung_reaches_horizon () =
  let platform, inv = make_platform () in
  let _, compute0 = inv.Tcloud.Setup.computes.(0) in
  Devices.Fault.hang_next
    (Devices.Device.faults (Devices.Compute.device compute0))
    ~action:Schema.act_start_vm;
  let quiesced =
    Platform.run ~until:300. platform (fun () ->
        ignore
          (Platform.submit platform ~proc:"spawnVM" ~args:(spawn_args "hung")))
  in
  check bool_c "no quiescence" false quiesced;
  check bool_c "a transaction is still in flight" false
    (Platform.quiescent platform);
  check (Alcotest.float 0.) "clock at the horizon" 300.
    (Des.Sim.now (Platform.sim platform))

(* ------------------------------------------------------------------ *)
(* Robustness: retry backoff, deadlines, stall watchdog *)

(* Nominal (jitter-free) backoff is non-decreasing in the attempt number
   and never exceeds the cap. *)
let backoff_bounded_prop =
  let gen =
    QCheck.Gen.(
      quad (float_range 0.01 10.) (float_range 1. 4.) (float_range 0.01 100.)
        (int_range 1 20))
  in
  QCheck.Test.make ~name:"backoff monotone and bounded by cap" ~count:300
    (QCheck.make gen) (fun (base, factor, cap, attempts) ->
      let policy =
        {
          Physical.no_retry with
          Physical.max_attempts = attempts + 1;
          backoff_base = base;
          backoff_factor = factor;
          backoff_cap = cap;
        }
      in
      let rec go prev n =
        if n > attempts then true
        else
          let d = Physical.backoff_nominal policy n in
          if d < prev -. 1e-9 then
            QCheck.Test.fail_reportf "retry %d: %.4f < previous %.4f" n d prev
          else if d > cap +. 1e-9 then
            QCheck.Test.fail_reportf "retry %d: %.4f above cap %.4f" n d cap
          else go d (n + 1)
      in
      go 0. 1)

(* With the default ±50% jitter, every delay lands in
   [nominal/2, 3*nominal/2]; seeds pinned so a regression reproduces. *)
let test_backoff_jitter_within_bounds () =
  let policy = Physical.default_retry in
  let j = policy.Physical.jitter in
  check bool_c "default jitter is 50%" true (j = 0.5);
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      for n = 1 to 50 do
        let nominal = Physical.backoff_nominal policy n in
        let d = Physical.backoff_delay policy ~rng n in
        let lo = nominal *. (1. -. j) and hi = nominal *. (1. +. j) in
        if d < lo -. 1e-9 || d > hi +. 1e-9 then
          Alcotest.failf "seed %d, retry %d: delay %.4f outside [%.4f, %.4f]"
            seed n d lo hi
      done)
    [ 1; 7; 42; 1337 ]

(* A transient device error is retried in place by the worker: the
   transaction still commits, and the retry shows up in the leader's
   counters (carried home on the Result message). *)
let test_e2e_transient_fault_retried () =
  let spec = { quick_spec with Platform.worker_retry = Physical.default_retry } in
  with_platform ~spec (fun platform inv ->
      let _, compute0 = inv.Tcloud.Setup.computes.(0) in
      Devices.Fault.fail_next
        (Devices.Device.faults (Devices.Compute.device compute0))
        ~severity:Devices.Fault.Transient ~action:Schema.act_start_vm;
      expect_committed "spawn survives a transient fault"
        (Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "rt1"));
      let st = Controller.stats (Platform.await_leader_controller platform) in
      check bool_c "retry counted" true (st.Controller.exec_retries > 0);
      check bool_c "transient failure counted" true
        (st.Controller.transient_failures > 0))

(* A hung device invocation is killed by the per-action deadline, counted
   as a (transient) timeout, and the retry commits the transaction. *)
let test_e2e_hang_rescued_by_deadline () =
  let spec =
    {
      quick_spec with
      Platform.worker_retry =
        { Physical.default_retry with Physical.deadline = Some 10. };
    }
  in
  with_platform ~spec (fun platform inv ->
      let _, compute0 = inv.Tcloud.Setup.computes.(0) in
      Devices.Fault.hang_next
        (Devices.Device.faults (Devices.Compute.device compute0))
        ~action:Schema.act_start_vm;
      expect_committed "spawn survives a hung invocation"
        (Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "hg1"));
      let st = Controller.stats (Platform.await_leader_controller platform) in
      check bool_c "deadline expiry counted" true (st.Controller.timeouts > 0))

(* Regression: a worker crash mid-transaction strands the txn — the phyQ
   item is gone and no Result will ever arrive.  The watchdog must escalate
   TERM (ignored, the worker is dead) → KILL, failing the transaction,
   releasing its locks and draining the waiter it was blocking; after the
   operator heals the quarantine the platform is fully usable. *)
let test_e2e_worker_crash_rescued_by_watchdog () =
  let spec =
    {
      quick_spec with
      Platform.controller_config =
        {
          Tcloud.Setup.controller_config with
          Controller.watchdog =
            {
              Watchdog.default_config with
              Watchdog.latency_factor = 1.0;
              slack = 2.;
              term_grace = 3.;
              kill_grace = 3.;
              poll_interval = 0.5;
            };
        };
    }
  in
  with_platform ~spec (fun platform _inv ->
      let a = Platform.submit platform ~proc:"spawnVM" ~args:(spawn_args "wd1") in
      (* Let txn A reach the physical layer (cloneImage takes 4 s), then
         crash both workers: A is now abandoned mid-execution. *)
      Des.Proc.sleep 6.;
      Platform.kill_worker platform 0;
      Platform.kill_worker platform 1;
      (* B conflicts on the same host and parks in the blocked table. *)
      let b = Platform.submit platform ~proc:"spawnVM" ~args:(spawn_args "wd2") in
      (match Platform.await platform a with
       | Txn.Failed _ -> ()
       | other ->
         Alcotest.failf "abandoned txn: expected failed, got %s"
           (Txn.state_to_string other));
      (* A's locks were released, so B drains out of the blocked table —
         to an abort, because the KILL quarantined the subtree. *)
      (match Platform.await platform b with
       | Txn.Aborted _ -> ()
       | other ->
         Alcotest.failf "blocked txn: expected abort, got %s"
           (Txn.state_to_string other));
      let st = Controller.stats (Platform.await_leader_controller platform) in
      check bool_c "watchdog TERMed" true (st.Controller.auto_terms > 0);
      check bool_c "watchdog KILLed" true (st.Controller.auto_kills > 0);
      (* Operator heals: fresh workers, reload the quarantined subtrees. *)
      Platform.restart_worker platform 0;
      Platform.restart_worker platform 1;
      Platform.reload platform (Data.Path.v host0);
      Platform.reload platform (Data.Path.v storage0);
      Des.Proc.sleep 5.;
      expect_committed "platform usable after rescue"
        (Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "wd3")))

(* ------------------------------------------------------------------ *)
(* Overload: health scoring, circuit breakers, admission control *)

(* Random op sequences against one breaker; after every op:
   - the combined score stays in [0, 1];
   - Tripped is only left through [admit], and never before the cooldown;
   - at most one canary is outstanding while Half_open. *)
let breaker_fsm_prop =
  let cfg =
    {
      Health.default_config with
      Health.alpha = 0.5;
      trip_threshold = 0.6;
      cooldown = 10.;
      latency_ref = 10.;
    }
  in
  let gen =
    QCheck.Gen.(list_size (int_range 5 80) (pair (int_bound 5) (float_range 0.5 6.)))
  in
  QCheck.Test.make ~name:"health breaker FSM invariants" ~count:300
    (QCheck.make gen) (fun ops ->
      let stats = Stats.fresh_stats () in
      let h = Health.create ~trace:Trace.off ~stats cfg in
      let root = Data.Path.v host0 in
      let now = ref 0. in
      let next_txn = ref 0 in
      let outstanding = ref None in
      let tripped_since = ref None in
      let invariants ~via_admit =
        let s = Health.score h ~root in
        if s < 0. || s > 1. then
          QCheck.Test.fail_reportf "score %.3f outside [0, 1]" s;
        match (Health.state_of h ~root, !tripped_since) with
        | Health.Tripped, None -> tripped_since := Some !now
        | Health.Tripped, Some _ -> ()
        | (Health.Closed | Health.Half_open), Some since ->
          if !now -. since < cfg.Health.cooldown -. 1e-9 then
            QCheck.Test.fail_reportf
              "left Tripped after %.2fs, cooldown is %.2fs" (!now -. since)
              cfg.Health.cooldown;
          if not via_admit then
            QCheck.Test.fail_report "left Tripped without an admit call";
          tripped_since := None
        | (Health.Closed | Health.Half_open), None -> ()
      in
      List.iter
        (fun (op, dt) ->
          let via_admit = ref false in
          (match op with
           | 0 -> now := !now +. dt (* time passes *)
           | 1 ->
             via_admit := true;
             ignore (Health.admit h ~now:!now [ root ])
           | 2 ->
             (* Try to claim the canary slot with a fresh txn. *)
             incr next_txn;
             let before = stats.Stats.breaker_probes in
             Health.start h ~now:!now ~txn:!next_txn ~probes:[ root ];
             if stats.Stats.breaker_probes > before then begin
               if !outstanding <> None then
                 QCheck.Test.fail_report
                   "second canary admitted while one is outstanding";
               outstanding := Some !next_txn
             end
           | 3 | 4 ->
             (* Observe an outcome — for the outstanding canary when there
                is one, else for an unrelated transaction. *)
             let txn, is_probe =
               match !outstanding with
               | Some t -> (t, true)
               | None ->
                 incr next_txn;
                 (!next_txn, false)
             in
             let ok = op = 3 in
             (* Restart the clock so the scored latency is 0.5 or 30 s. *)
             Health.start h ~now:(!now -. if ok then 0.5 else 30.) ~txn
               ~probes:[];
             Health.report h ~now:!now ~txn ~ok
               ~retries:(if ok then 0 else 2)
               ~timeouts:(if ok then 0 else 1)
               [ root ];
             if is_probe then outstanding := None
           | _ ->
             (match !outstanding with
              | Some t ->
                Health.forget h ~txn:t;
                outstanding := None
              | None -> ()));
          invariants ~via_admit:!via_admit)
        ops;
      true)

(* Admission control under a storm: with watermarks high=4 / low=2 a
   burst of conflicting spawns sheds the overflow with a fast
   `Overload abort, while the admitted prefix still commits. *)
let test_e2e_admission_sheds_overload () =
  let spec =
    {
      quick_spec with
      Platform.controller_config =
        {
          Tcloud.Setup.controller_config with
          Controller.admission = { Health.queue_high = Some 4; queue_low = 2 };
        };
    }
  in
  with_platform ~spec (fun platform _inv ->
      let ids =
        List.init 12 (fun i ->
            Platform.submit platform ~proc:"spawnVM"
              ~args:(spawn_args (Printf.sprintf "ov%02d" i)))
      in
      let states = List.map (Platform.await platform) ids in
      let committed =
        List.length (List.filter (fun s -> s = Txn.Committed) states)
      in
      let overloads =
        List.length (List.filter Txn.is_overload states)
      in
      check bool_c "some commits" true (committed >= 1);
      check bool_c "some overload aborts" true (overloads >= 1);
      let st = Controller.stats (Platform.await_leader_controller platform) in
      check bool_c "sheds counted" true (st.Controller.sheds >= overloads);
      (* Hysteresis drained the queue, so a late arrival is admitted. *)
      expect_committed "post-storm spawn"
        (Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "ov-late")))

(* Breaker end-to-end: a host that fails everything trips its breaker;
   transactions writing under it are deferred (not failed) while Tripped;
   once the device heals, the cooldown canary commits and the breaker
   closes, releasing the parked transaction. *)
let breaker_reopen_spec =
  {
    quick_spec with
    Platform.worker_retry =
      { Physical.default_retry with Physical.max_attempts = 2 };
    Platform.controller_config =
      {
        Tcloud.Setup.controller_config with
        Controller.health =
          {
            Health.default_config with
            Health.alpha = 0.9;
            trip_threshold = 0.6;
            cooldown = 15.;
            poll_interval = 1.0;
          };
      };
  }

let breaker_reopen_scenario platform inv =
  let _, compute0 = inv.Tcloud.Setup.computes.(0) in
  let faults = Devices.Device.faults (Devices.Compute.device compute0) in
  (match Devices.Fault.set_probability faults 1.0 with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  (* Every action on host 0 fails: the first spawn aborts on rollback
     and its failure sample (alpha 0.9) trips the breaker. *)
  (match Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "cb1") with
   | Txn.Aborted _ | Txn.Failed _ -> ()
   | other ->
     Alcotest.failf "expected abort under faults, got %s"
       (Txn.state_to_string other));
  let leader = Platform.await_leader_controller platform in
  let st = Controller.stats leader in
  check bool_c "breaker tripped" true (st.Controller.breaker_trips >= 1);
  (* A transaction submitted while Tripped parks at admission. *)
  let parked =
    Platform.submit platform ~proc:"spawnVM" ~args:(spawn_args "cb2")
  in
  Des.Proc.sleep 5.;
  check bool_c "parked txn deferred, not finished" true
    (st.Controller.breaker_deferrals >= 1);
  (* Heal the device; after the cooldown the canary commits, closes
     the breaker and the parked transaction drains. *)
  (match Devices.Fault.set_probability faults 0.0 with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  expect_committed "parked txn commits after reopen"
    (Platform.await platform parked);
  let st = Controller.stats leader in
  check bool_c "canary probed" true (st.Controller.breaker_probes >= 1);
  check bool_c "breaker closed" true (st.Controller.breaker_closes >= 1)

let test_e2e_breaker_trips_then_canary_reopens () =
  with_platform ~spec:breaker_reopen_spec breaker_reopen_scenario

(* Breaker counters live in the shard's record, fed by breaker events:
   a trip seen by one leader stays counted after fail-over, whichever
   instance is asked, standbys included. *)
let test_e2e_breaker_count_survives_failover () =
  let spec =
    {
      quick_spec with
      Platform.worker_retry =
        { Physical.default_retry with Physical.max_attempts = 2 };
      Platform.controller_config =
        {
          Tcloud.Setup.controller_config with
          Controller.health =
            { Health.default_config with Health.alpha = 0.9; cooldown = 15. };
        };
    }
  in
  with_platform ~spec (fun platform inv ->
      let _, compute0 = inv.Tcloud.Setup.computes.(0) in
      let faults = Devices.Device.faults (Devices.Compute.device compute0) in
      (match Devices.Fault.set_probability faults 1.0 with
       | Ok () -> ()
       | Error e -> Alcotest.fail e);
      (match Platform.run_txn platform ~proc:"spawnVM" ~args:(spawn_args "bf1") with
       | Txn.Aborted _ | Txn.Failed _ -> ()
       | other ->
         Alcotest.failf "expected abort under faults, got %s"
           (Txn.state_to_string other));
      let leader = Platform.await_leader_controller platform in
      check bool_c "breaker tripped" true
        ((Controller.stats leader).Controller.breaker_trips >= 1);
      (match Platform.leader_index platform with
       | Some i -> Platform.kill_controller platform i
       | None -> Alcotest.fail "no leader to kill");
      let rec await_successor () =
        let c = Platform.await_leader_controller platform in
        if c == leader then begin
          Des.Proc.sleep 0.5;
          await_successor ()
        end
        else c
      in
      let successor = await_successor () in
      let standbys =
        List.filter
          (fun c -> c != leader && c != successor)
          (Array.to_list (Platform.controllers platform))
      in
      check bool_c "a standby remains" true (standbys <> []);
      List.iter
        (fun c ->
          check bool_c "standby still sees the trip" true
            ((Controller.stats c).Controller.breaker_trips >= 1))
        standbys;
      check bool_c "successor still sees the trip" true
        ((Controller.stats successor).Controller.breaker_trips >= 1))

(* ------------------------------------------------------------------ *)
(* Per-transaction span tracing (lib/trace) *)

(* Like [with_platform] but with a span recorder attached; [scenario]
   additionally receives the tracer. *)
let with_traced_platform ?(spec = quick_spec) ?(size = Tcloud.Setup.small)
    ?(seed = 11) scenario =
  let sim = Des.Sim.create ~seed () in
  let tracer = Trace.create ~sim () in
  let inv = Tcloud.Setup.build ~timing:`Process ~rng:(Des.Sim.rng sim) size in
  let platform =
    Platform.create
      { spec with Platform.trace = Some tracer }
      inv.Tcloud.Setup.env ~initial_tree:inv.Tcloud.Setup.tree
      ~devices:inv.Tcloud.Setup.devices sim
  in
  Experiments.Common.run_scenario platform (fun () -> scenario platform inv tracer)

let txn_spans tracer id =
  List.filter (fun s -> s.Trace.txn = id) (Trace.spans tracer)

let has_prefix prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let span_named spans name =
  match List.find_opt (fun s -> s.Trace.name = name) spans with
  | Some s -> s
  | None -> Alcotest.failf "no %S span" name

let expect_valid_trace tracer =
  match Trace.Check.validate tracer with
  | [] -> ()
  | errors ->
    Alcotest.failf "trace invariant violations: %s"
      (String.concat "; " (List.map Trace.Check.error_to_string errors))

let test_trace_commit_lifecycle () =
  with_traced_platform (fun platform _inv tracer ->
      let id =
        Platform.submit platform ~proc:"spawnVM" ~args:(spawn_args "trc1")
      in
      expect_committed "spawnVM" (Platform.await platform id);
      let spans = txn_spans tracer id in
      let root = span_named spans "spawnVM" in
      check (Alcotest.option string_c) "root state" (Some "committed")
        (Trace.attr root "state");
      let simulate = span_named spans "simulate" in
      let replay = span_named spans "replay" in
      (* Lifecycle order: logical simulation completes before physical
         replay begins. *)
      (match simulate.Trace.end_ts with
       | Some e ->
         check bool_c "simulate before replay" true
           (e <= replay.Trace.start_ts)
       | None -> Alcotest.fail "simulate span still open");
      check (Alcotest.option string_c) "replay outcome" (Some "committed")
        (Trace.attr replay "outcome");
      check bool_c "no undo spans on commit path" true
        (List.for_all (fun s -> s.Trace.cat <> "undo") spans);
      expect_valid_trace tracer)

let test_trace_fault_replay_undo_reversed () =
  with_traced_platform (fun platform inv tracer ->
      let _, compute0 = inv.Tcloud.Setup.computes.(0) in
      Devices.Fault.fail_next
        (Devices.Device.faults (Devices.Compute.device compute0))
        ~action:Schema.act_start_vm;
      let id =
        Platform.submit platform ~proc:"spawnVM" ~args:(spawn_args "trc2")
      in
      (match Platform.await platform id with
       | Txn.Aborted _ -> ()
       | other ->
         Alcotest.failf "expected abort, got %s" (Txn.state_to_string other));
      let spans = txn_spans tracer id in
      let index_of s =
        match Option.bind (Trace.attr s "index") int_of_string_opt with
        | Some i -> i
        | None -> Alcotest.failf "span %s has no index" s.Trace.name
      in
      let ok_actions =
        List.filter
          (fun s ->
            has_prefix "action:" s.Trace.name
            && Trace.attr s "outcome" = Some "ok")
          spans
      in
      let undo_actions =
        List.filter (fun s -> has_prefix "undo:" s.Trace.name) spans
      in
      check bool_c "some actions replayed" true (ok_actions <> []);
      check bool_c "undo recorded" true (undo_actions <> []);
      (* Undo runs in exact reverse order of the ok'd replayed actions. *)
      check (Alcotest.list int_c) "undo reverses replay"
        (List.rev (List.map index_of ok_actions))
        (List.map index_of undo_actions);
      expect_valid_trace tracer)

let test_trace_lock_wait_names_holder () =
  with_traced_platform (fun platform _inv tracer ->
      (* Two spawns sharing host0 + storage0: the second conflicts on the
         first's W locks and parks until release. *)
      let a =
        Platform.submit platform ~proc:"spawnVM" ~args:(spawn_args "trw1")
      in
      let b =
        Platform.submit platform ~proc:"spawnVM" ~args:(spawn_args "trw2")
      in
      expect_committed "first spawn" (Platform.await platform a);
      expect_committed "second spawn" (Platform.await platform b);
      let wait = span_named (txn_spans tracer b) "lock-wait" in
      check (Alcotest.option string_c) "blocking holder named"
        (Some (string_of_int a))
        (Trace.attr wait "holder");
      (match wait.Trace.end_ts with
       | Some e -> check bool_c "wait ended" true (e >= wait.Trace.start_ts)
       | None -> Alcotest.fail "lock-wait span still open");
      expect_valid_trace tracer)

let test_trace_reserved_wait_names_head () =
  with_traced_platform (fun platform _inv tracer ->
      let host2 = "/vmRoot/host00002" and storage1 = "/storageRoot/storage00001" in
      let spawn_on ~host ~storage vm =
        Tcloud.Procs.spawn_vm_args ~vm ~template:"base.img" ~mem_mb:512
          ~storage ~host
      in
      expect_committed "setup spawn"
        (Platform.run_txn platform ~proc:"spawnVM"
           ~args:(spawn_on ~host:host2 ~storage:storage1 "m"));
      (* [a] holds host0; [b] (host2 -> host0) parks behind it, reserving
         host2 too; [c] on host2 conflicts with no holder, only with the
         parked head's reservation, so it waits for [b] rather than
         overtaking it. *)
      let a = Platform.submit platform ~proc:"spawnVM" ~args:(spawn_args "ra") in
      let b =
        Platform.submit platform ~proc:"migrateVM"
          ~args:(Tcloud.Procs.migrate_vm_args ~src:host2 ~dst:host0 ~vm:"m")
      in
      let c =
        Platform.submit platform ~proc:"spawnVM"
          ~args:(spawn_on ~host:host2 ~storage:storage1 "rc")
      in
      List.iter
        (fun id -> expect_committed (string_of_int id) (Platform.await platform id))
        [ a; b; c ];
      let wait = span_named (txn_spans tracer c) "lock-wait" in
      check (Alcotest.option string_c) "head named as holder"
        (Some (string_of_int b)) (Trace.attr wait "holder");
      check (Alcotest.option string_c) "marked reserved" (Some "true")
        (Trace.attr wait "reserved");
      check (Alcotest.option string_c) "holder waits are unmarked" None
        (Trace.attr (span_named (txn_spans tracer b) "lock-wait") "reserved");
      expect_valid_trace tracer)

(* A reload of a subtree that a running txn holds locked is deferred, not
   adopted mid-replay, and leaves no lock behind.  The out-of-band VM
   appears while a spawn on the same host is Started; the reload ahead of
   the spawn's result in inputQ must leave the tree alone, and only a
   reload after the spawn adopts it. *)
let test_e2e_reload_deferred_while_locked () =
  with_platform (fun platform inv ->
      let _, compute0 = inv.Tcloud.Setup.computes.(0) in
      let oob = Data.Path.v (host0 ^ "/oob") in
      let id = Platform.submit platform ~proc:"spawnVM" ~args:(spawn_args "busy") in
      let leader = Platform.await_leader_controller platform in
      while not (List.mem id (Controller.started_txns leader)) do
        Des.Proc.sleep 0.01
      done;
      Devices.Compute.preload_vm compute0 ~name:"oob" ~image:"oob.img"
        ~mem_mb:512 ~state:`Running;
      Platform.reload platform (Data.Path.v host0);
      expect_committed "spawn" (Platform.await platform id);
      check bool_c "reload deferred while locked" false
        (Data.Tree.mem (Controller.tree leader) oob);
      check int_c "no lock left" 0 (Controller.lock_count leader);
      check int_c "no waiter left" 0 (Controller.waiter_count leader);
      Platform.reload platform (Data.Path.v host0);
      Des.Proc.sleep 5.;
      check bool_c "adopted once unlocked" true
        (Data.Tree.mem (Controller.tree leader) oob);
      check int_c "its lock released" 0 (Controller.lock_count leader))

(* The breaker counters have one writer, [Health], which emits the health
   instants too: over the trip-then-reopen run each counter equals the
   number of instants of its kind, and each deferral opens one
   breaker-park span. *)
let test_e2e_breaker_counters_match_instants () =
  let ran = ref None in
  with_traced_platform ~spec:breaker_reopen_spec (fun platform inv tracer ->
      breaker_reopen_scenario platform inv;
      ran := Some (platform, tracer));
  let platform, tracer = Option.get !ran in
  let st = Platform.shard_stats platform 0 in
  let instants name =
    List.length
      (List.filter
         (fun e -> e.Trace.ecat = "health" && e.Trace.ename = name)
         (Trace.events tracer))
  in
  let parks =
    List.filter
      (fun s -> s.Trace.cat = "health" && s.Trace.name = "breaker-park")
      (Trace.spans tracer)
  in
  check int_c "trips" (instants "breaker-trip") st.Stats.breaker_trips;
  check int_c "probes" (instants "breaker-probe") st.Stats.breaker_probes;
  check int_c "closes" (instants "breaker-close") st.Stats.breaker_closes;
  check int_c "deferrals" (List.length parks) st.Stats.breaker_deferrals

let suite =
  [
    ("xlog: codec roundtrip", `Quick, test_xlog_roundtrip);
    ("txn: codec roundtrip", `Quick, test_txn_roundtrip);
    QCheck_alcotest.to_alcotest txn_state_strings_prop;
    ("proto: codec roundtrip", `Quick, test_proto_roundtrip);
    ("proto: item key parsing", `Quick, test_seq_of_item_key);
    ("deque: basic operations", `Quick, test_deque);
    ("logical: Table 1 spawn log", `Quick, test_table1_spawn_log);
    ("logical: constraint violation aborts", `Quick, test_simulation_constraint_violation);
    ("logical: lock inference", `Quick, test_lock_inference);
    ("logical: rollback restores tree", `Quick, test_logical_rollback_restores_tree);
    ("logical: irreversible undo fails", `Quick, test_rollback_irreversible_fails);
    ("logical: migrate hypervisor rule", `Quick, test_migrate_hypervisor_rule);
    ("constraints: helpers", `Quick, test_constraints_helpers);
    QCheck_alcotest.to_alcotest rollback_inverse_prop;
    ("physical: commit and rollback", `Quick, test_physical_execute_commit_and_rollback);
    ("physical: undo failure", `Quick, test_physical_undo_failure_is_failed);
    ("recon: repair plan after power cycle", `Quick, test_plan_repair_after_power_cycle);
    ("recon: drift verdicts", `Quick, test_recon_drift_verdicts);
    ("recon: quarantine set", `Quick, test_recon_quarantine);
    ("e2e: spawn commits, layers consistent", `Quick, test_e2e_spawn_commits);
    ("e2e: violation aborts before devices", `Quick, test_e2e_violation_aborts_before_devices);
    ("e2e: physical failure rolls back", `Quick, test_e2e_physical_failure_rolls_back_both_layers);
    ("e2e: undo failure quarantines; reload recovers", `Quick, test_e2e_undo_failure_quarantines_then_reload_recovers);
    ("e2e: concurrent spawns respect memory", `Quick, test_e2e_concurrent_spawns_memory_safety);
    ("e2e: conflicting spawns defer then commit", `Quick, test_e2e_deferred_conflict_then_commit);
    ("e2e: KILL quarantines; reload recovers", `Quick, test_e2e_kill_signal_quarantines_then_repair);
    ( "e2e: KILL of a txn whose worker died leaves no signal",
      `Quick,
      test_e2e_kill_dead_worker_leaves_no_signal );
    ( "e2e: KILL of a queued txn leaves no signal",
      `Quick,
      test_e2e_kill_queued_txn_leaves_no_signal );
    ("e2e: repair after power cycle", `Quick, test_e2e_repair_after_power_cycle);
    ("e2e: periodic repair detects drift", `Quick, test_e2e_periodic_repair_detects_drift);
    ("e2e: hung repair step times out", `Quick, test_e2e_hung_repair_step_times_out);
    ("e2e: reload adopts out-of-band change", `Quick, test_e2e_reload_adopts_oob_change);
    ("e2e: destroy roundtrip", `Quick, test_e2e_destroy_roundtrip);
    ("e2e: network procedures", `Quick, test_e2e_network_procedures);
    ("txn: TERM flag roundtrip", `Quick, test_txn_termed_roundtrip);
    ("e2e: TERM on queued txn", `Quick, test_e2e_term_on_queued_txn);
    ( "e2e: TERM survives a leader fail-over",
      `Quick,
      test_e2e_term_survives_failover );
    ( "e2e: KILL whose window was lost is applied again",
      `Quick,
      test_e2e_kill_window_lost_reapplied );
    ("e2e: aggressive scheduling", `Quick, test_e2e_aggressive_scheduling);
    ("e2e: aggressive hot subtree does not starve", `Quick, test_e2e_aggressive_no_starvation);
    ("e2e: FIFO preserves submission order", `Quick, test_e2e_fifo_preserves_submission_order);
    ("e2e: controller failover loses nothing", `Quick, test_e2e_controller_failover_no_loss);
    ("e2e: failover keeps the shard's stats", `Quick, test_e2e_failover_keeps_shard_stats);
    ("e2e: leader holds only live txns, as recovery does", `Quick, test_e2e_leader_holds_only_live_txns);
    QCheck_alcotest.to_alcotest checkpoint_recovery_prop;
    ("e2e: leader killed right after a prune", `Quick, test_e2e_kill_after_prune);
    ("e2e: txn Started at a checkpoint aborts after it", `Quick, test_e2e_checkpointed_started_txn_aborts);
    ("e2e: failover preserves quarantine", `Quick, test_e2e_failover_preserves_quarantine);
    ("e2e: converge under failover", `Quick, test_e2e_converge_under_failover);
    ("e2e: reload refuses violating state", `Quick, test_e2e_reload_refuses_violating_state);
    QCheck_alcotest.to_alcotest backoff_bounded_prop;
    ("robust: jittered backoff within bounds", `Quick, test_backoff_jitter_within_bounds);
    ("robust: transient fault retried", `Quick, test_e2e_transient_fault_retried);
    ("robust: hang rescued by deadline", `Quick, test_e2e_hang_rescued_by_deadline);
    ("run: fire-and-forget drains", `Quick, test_run_drains_fire_and_forget);
    ("run: hung action reaches the horizon", `Quick, test_run_hung_reaches_horizon);
    ("robust: worker crash rescued by watchdog", `Quick, test_e2e_worker_crash_rescued_by_watchdog);
    QCheck_alcotest.to_alcotest breaker_fsm_prop;
    ("overload: admission sheds under storm", `Quick, test_e2e_admission_sheds_overload);
    ("overload: breaker trips then canary reopens", `Quick, test_e2e_breaker_trips_then_canary_reopens);
    ("overload: breaker count survives failover", `Quick, test_e2e_breaker_count_survives_failover);
    ("trace: commit lifecycle span order", `Quick, test_trace_commit_lifecycle);
    ("trace: fault replay undo reversed", `Quick, test_trace_fault_replay_undo_reversed);
    ("trace: lock-wait names blocking holder", `Quick, test_trace_lock_wait_names_holder);
    ("trace: reserved lock-wait names the head", `Quick, test_trace_reserved_wait_names_head);
    ("e2e: reload deferred while a txn holds the subtree", `Quick, test_e2e_reload_deferred_while_locked);
    ("overload: breaker counters match the health instants", `Quick, test_e2e_breaker_counters_match_instants);
    ("e2e: malformed VM name aborts", `Quick, test_e2e_malformed_name_aborts);
  ]

let () = Alcotest.run "tropic" [ ("tropic", suite) ]
