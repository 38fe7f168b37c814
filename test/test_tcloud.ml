(* Tests for the TCloud service layer: logical actions and their undo
   pairings, constraints, stored procedures, and the inventory builder. *)

open Tropic

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

module Schema = Devices.Schema

let v_str s = Data.Value.Str s
let v_int i = Data.Value.Int i
let host0 = Data.Path.v "/vmRoot/host00000"
let host0_s = "/vmRoot/host00000"
let storage0_s = "/storageRoot/storage00000"
let switch0 = Data.Path.v "/netRoot/switch000"

let inventory () = Tcloud.Setup.build Tcloud.Setup.small

let simulate ?(inv = inventory ()) proc args =
  Logical.simulate inv.Tcloud.Setup.env ~tree:inv.Tcloud.Setup.tree ~proc ~args

let expect_ok what = function
  | Ok v -> v
  | Error reason -> Alcotest.failf "%s: %s" what reason

let expect_error what = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error reason -> reason

(* ------------------------------------------------------------------ *)
(* Logical actions applied directly *)

let apply_action inv tree path action args =
  match
    Dsl.find_action inv.Tcloud.Setup.env
      ~kind:
        (match Data.Tree.kind tree path with
         | Some k -> k
         | None -> Alcotest.failf "no node at %s" (Data.Path.to_string path))
      ~action
  with
  | None -> Alcotest.failf "no action %s" action
  | Some def -> def.Dsl.logical tree path args

let test_action_import_unimport () =
  let inv = inventory () in
  let tree = inv.Tcloud.Setup.tree in
  let tree =
    expect_ok "import"
      (apply_action inv tree host0 Schema.act_import_image [ v_str "a.img" ])
  in
  ignore
    (expect_error "double import"
       (apply_action inv tree host0 Schema.act_import_image [ v_str "a.img" ]));
  let tree' =
    expect_ok "unimport"
      (apply_action inv tree host0 Schema.act_unimport_image [ v_str "a.img" ])
  in
  ignore
    (expect_error "unimport twice"
       (apply_action inv tree' host0 Schema.act_unimport_image [ v_str "a.img" ]))

let test_action_create_vm_requires_import () =
  let inv = inventory () in
  let tree = inv.Tcloud.Setup.tree in
  ignore
    (expect_error "create without import"
       (apply_action inv tree host0 Schema.act_create_vm
          [ v_str "x"; v_str "ghost.img"; v_int 512 ]));
  let tree =
    expect_ok "import"
      (apply_action inv tree host0 Schema.act_import_image [ v_str "a.img" ])
  in
  let tree =
    expect_ok "create"
      (apply_action inv tree host0 Schema.act_create_vm
         [ v_str "x"; v_str "a.img"; v_int 512 ])
  in
  ignore
    (expect_error "unimport while in use"
       (apply_action inv tree host0 Schema.act_unimport_image [ v_str "a.img" ]));
  match Data.Tree.get_attr tree (Data.Path.child host0 "x") Schema.attr_state with
  | Some (Data.Value.Str s) -> check string_c "created stopped" "stopped" s
  | _ -> Alcotest.fail "vm state"

let test_action_vlan_lifecycle () =
  let inv = inventory () in
  let tree = inv.Tcloud.Setup.tree in
  let tree =
    expect_ok "create vlan"
      (apply_action inv tree switch0 Schema.act_create_vlan
         [ v_int 9; v_str "t" ])
  in
  let tree =
    expect_ok "add port"
      (apply_action inv tree switch0 Schema.act_add_port [ v_int 9; v_str "p0" ])
  in
  ignore
    (expect_error "remove vlan with ports"
       (apply_action inv tree switch0 Schema.act_remove_vlan [ v_int 9 ]));
  let tree =
    expect_ok "remove port"
      (apply_action inv tree switch0 Schema.act_remove_port
         [ v_int 9; v_str "p0" ])
  in
  let tree =
    expect_ok "remove vlan"
      (apply_action inv tree switch0 Schema.act_remove_vlan [ v_int 9 ])
  in
  check bool_c "vlan gone" false
    (Data.Tree.mem tree (Data.Path.child switch0 "vlan0009"))

(* ------------------------------------------------------------------ *)
(* Undo pairings *)

let spawn_args vm =
  Tcloud.Procs.spawn_vm_args ~vm ~template:"base.img" ~mem_mb:1024
    ~storage:storage0_s ~host:host0_s

let test_remove_vm_undo_recreates () =
  let inv = inventory () in
  let { Logical.new_tree; _ } =
    expect_ok "spawn" (simulate ~inv "spawnVM" (spawn_args "u1"))
  in
  (* Simulate a destroy and roll the whole thing back logically; the VM
     reappears with its exact configuration thanks to removeVM's undo. *)
  let destroyed =
    expect_ok "destroy simulate"
      (Logical.simulate inv.Tcloud.Setup.env ~tree:new_tree ~proc:"stopVM"
         ~args:(Tcloud.Procs.stop_vm_args ~host:host0_s ~vm:"u1"))
  in
  let tree1 = destroyed.Logical.new_tree in
  let remove =
    expect_ok "removeVM sim"
      (Logical.simulate inv.Tcloud.Setup.env ~tree:tree1 ~proc:"startVM"
         ~args:(Tcloud.Procs.start_vm_args ~host:host0_s ~vm:"u1"))
  in
  ignore remove;
  (* Direct check on the undo metadata of a migrate log. *)
  let inv2 =
    Tcloud.Setup.build
      { Tcloud.Setup.small with Tcloud.Setup.prepopulated_vms_per_host = 1 }
  in
  let vm = Tcloud.Setup.prepop_vm_name ~host:0 ~index:0 in
  let migrate =
    expect_ok "migrate sim"
      (Logical.simulate inv2.Tcloud.Setup.env ~tree:inv2.Tcloud.Setup.tree
         ~proc:"migrateVM"
         ~args:
           (Tcloud.Procs.migrate_vm_args ~src:host0_s
              ~dst:"/vmRoot/host00002" ~vm))
  in
  let remove_record =
    List.find
      (fun (r : Xlog.record) -> String.equal r.Xlog.action Schema.act_remove_vm)
      migrate.Logical.log
  in
  (match remove_record.Xlog.undo with
   | Some undo -> check string_c "undo is createVM" Schema.act_create_vm undo
   | None -> Alcotest.fail "removeVM should be reversible");
  check int_c "undo carries name+image+mem" 3
    (List.length remove_record.Xlog.undo_args);
  (* And the migrate log as a whole rolls back cleanly. *)
  let restored =
    match
      Logical.rollback inv2.Tcloud.Setup.env ~tree:migrate.Logical.new_tree
        ~log:migrate.Logical.log
    with
    | Ok t -> t
    | Error (i, reason) -> Alcotest.failf "undo #%d: %s" i reason
  in
  check bool_c "migrate rollback exact" true
    (Data.Tree.equal restored inv2.Tcloud.Setup.tree)

let test_remove_image_irreversible () =
  let inv = inventory () in
  let { Logical.new_tree; _ } =
    expect_ok "spawn" (simulate ~inv "spawnVM" (spawn_args "u2"))
  in
  let destroy =
    expect_ok "destroy sim"
      (Logical.simulate inv.Tcloud.Setup.env ~tree:new_tree ~proc:"destroyVM"
         ~args:
           (Tcloud.Procs.destroy_vm_args ~host:host0_s ~storage:storage0_s
              ~vm:"u2"))
  in
  (* The irreversible record is the last one. *)
  match List.rev destroy.Logical.log with
  | last :: _ ->
    check string_c "last is removeImage" Schema.act_remove_image
      last.Xlog.action;
    check bool_c "irreversible" true (last.Xlog.undo = None)
  | [] -> Alcotest.fail "empty log"

(* ------------------------------------------------------------------ *)
(* Constraints *)

let test_storage_capacity_constraint () =
  let inv =
    Tcloud.Setup.build
      { Tcloud.Setup.small with Tcloud.Setup.storage_capacity_mb = 25_000 }
  in
  (* Template is 10 GB; first clone fits (20 GB total), second exceeds. *)
  let first =
    expect_ok "first spawn" (simulate ~inv "spawnVM" (spawn_args "s1"))
  in
  let reason =
    expect_error "second spawn"
      (Logical.simulate inv.Tcloud.Setup.env ~tree:first.Logical.new_tree
         ~proc:"spawnVM" ~args:(spawn_args "s2"))
  in
  check bool_c "names storage-capacity" true
    (String.length reason > 0
     && Option.is_some
          (String.index_opt reason 's')
     && Str_contains.contains reason "storage-capacity")

and test_vlan_capacity_constraint () =
  let inv =
    Tcloud.Setup.build { Tcloud.Setup.small with Tcloud.Setup.max_vlans = 1 }
  in
  let switch = Data.Path.to_string switch0 in
  let first =
    expect_ok "first vlan"
      (simulate ~inv "createVlan"
         (Tcloud.Procs.create_vlan_args ~switch ~vlan:1 ~name:"a"))
  in
  let reason =
    expect_error "second vlan"
      (Logical.simulate inv.Tcloud.Setup.env ~tree:first.Logical.new_tree
         ~proc:"createVlan"
         ~args:(Tcloud.Procs.create_vlan_args ~switch ~vlan:2 ~name:"b"))
  in
  check bool_c "names switch-vlan-capacity" true
    (Str_contains.contains reason "switch-vlan-capacity")

let test_spawn_with_network () =
  let inv = inventory () in
  let switch = Data.Path.to_string switch0 in
  let vlan_setup =
    expect_ok "create vlan"
      (simulate ~inv "createVlan"
         (Tcloud.Procs.create_vlan_args ~switch ~vlan:10 ~name:"tenant"))
  in
  let spawn =
    expect_ok "spawn with network"
      (Logical.simulate inv.Tcloud.Setup.env ~tree:vlan_setup.Logical.new_tree
         ~proc:"spawnVMWithNetwork"
         ~args:
           (Tcloud.Procs.spawn_vm_with_network_args ~vm:"web" ~template:"base.img"
              ~mem_mb:512 ~storage:storage0_s ~host:host0_s ~switch ~vlan:10))
  in
  check int_c "six actions" 6 spawn.Logical.actions;
  match
    Data.Tree.get_attr spawn.Logical.new_tree
      (Data.Path.child switch0 "vlan0010")
      Schema.attr_ports
  with
  | Some (Data.Value.List [ Data.Value.Str port ]) ->
    check string_c "vm port attached" "web.eth0" port
  | _ -> Alcotest.fail "port list"

(* ------------------------------------------------------------------ *)
(* Setup invariants *)

let test_setup_layers_consistent () =
  let inv =
    Tcloud.Setup.build
      { Tcloud.Setup.small with Tcloud.Setup.prepopulated_vms_per_host = 3 }
  in
  (* The logical tree must equal the devices' own exports at time zero. *)
  Array.iter
    (fun (path, compute) ->
      let logical =
        match Data.Tree.subtree inv.Tcloud.Setup.tree path with
        | Ok node -> node
        | Error e -> Alcotest.fail (Data.Tree.error_to_string e)
      in
      check bool_c
        (Printf.sprintf "compute %s consistent" (Data.Path.to_string path))
        true
        (Data.Tree.equal logical
           (Devices.Device.export (Devices.Compute.device compute))))
    inv.Tcloud.Setup.computes;
  (* And the initial state violates no constraint anywhere. *)
  let registry = Dsl.constraints_of inv.Tcloud.Setup.env in
  Array.iter
    (fun (path, _) ->
      check int_c "no initial violations" 0
        (List.length (Constraints.check_path registry inv.Tcloud.Setup.tree path)))
    inv.Tcloud.Setup.computes

let test_setup_prepopulated_spawnable () =
  let inv =
    Tcloud.Setup.build
      { Tcloud.Setup.small with Tcloud.Setup.prepopulated_vms_per_host = 2 }
  in
  (* Prepopulated VMs are stopped and startable. *)
  let vm = Tcloud.Setup.prepop_vm_name ~host:1 ~index:0 in
  let result =
    expect_ok "start prepopulated"
      (simulate ~inv "startVM"
         (Tcloud.Procs.start_vm_args ~host:"/vmRoot/host00001" ~vm))
  in
  check int_c "one action" 1 result.Logical.actions

(* Exports declare each kind's layout once, so the initial tree holds one
   names array per kind, across every device. *)
let test_setup_one_names_array_per_kind () =
  let inv =
    Tcloud.Setup.build
      {
        Tcloud.Setup.small with
        Tcloud.Setup.compute_hosts = 8;
        storage_hosts = 4;
        switches = 2;
        prepopulated_vms_per_host = 2;
      }
  in
  let arrays =
    Data.Tree.fold
      (fun _ node acc ->
        let kind = node.Data.Tree.kind in
        let seen = Option.value (List.assoc_opt kind acc) ~default:[] in
        if List.memq node.Data.Tree.names seen then acc
        else (kind, node.Data.Tree.names :: seen) :: List.remove_assoc kind acc)
      inv.Tcloud.Setup.tree []
  in
  check bool_c "vm and image nodes are present" true
    (List.mem_assoc Schema.vm_kind arrays && List.mem_assoc Schema.image_kind arrays);
  List.iter
    (fun (kind, seen) -> check int_c (kind ^ " names arrays") 1 (List.length seen))
    arrays

(* A VM name that is not a path segment aborts the procedure; none raises. *)
let test_proc_malformed_name_aborts () =
  let inv =
    Tcloud.Setup.build
      { Tcloud.Setup.small with Tcloud.Setup.prepopulated_vms_per_host = 1 }
  in
  let host1 = "/vmRoot/host00001" in
  List.iter
    (fun (proc, args) ->
      ignore (expect_error proc (simulate ~inv proc args)))
    [
      ( "spawnVM",
        Tcloud.Procs.spawn_vm_args ~vm:"bad name" ~template:"base.img" ~mem_mb:512
          ~storage:storage0_s ~host:host0_s );
      "startVM", Tcloud.Procs.start_vm_args ~host:host0_s ~vm:"bad/name";
      "stopVM", Tcloud.Procs.stop_vm_args ~host:host0_s ~vm:"";
      ( "destroyVM",
        Tcloud.Procs.destroy_vm_args ~host:host0_s ~storage:storage0_s ~vm:"bad name" );
      "migrateVM", Tcloud.Procs.migrate_vm_args ~src:host0_s ~dst:host1 ~vm:"bad name";
    ]

let test_setup_scales () =
  let inv =
    Tcloud.Setup.build
      {
        Tcloud.Setup.small with
        Tcloud.Setup.compute_hosts = 500;
        storage_hosts = 125;
      }
  in
  (* 500 hosts + 125 storage (each with one template) + 1 switch + 3 roots *)
  check int_c "tree size" (3 + 500 + 125 + 125 + 1)
    (Data.Tree.size inv.Tcloud.Setup.tree);
  check int_c "device count" (500 + 125 + 1)
    (List.length inv.Tcloud.Setup.devices)

(* The devices at the ec2-burst benchmark's size (4 000 hosts, 1 000
   storages, no pre-populated VM) sharing one RNG, as a deployment's do:
   an idle device holds empty persistent maps, not bucket arrays. *)
let test_device_footprint () =
  let size =
    Experiments.Perf.deployment_size
      { Experiments.Perf.default_config with Experiments.Perf.hosts = 4_000 }
  in
  check int_c "storage hosts" 1_000 size.Tcloud.Setup.storage_hosts;
  check int_c "no pre-populated VM" 0 size.Tcloud.Setup.prepopulated_vms_per_host;
  let inv = Tcloud.Setup.build ~rng:(Random.State.make [| 1 |]) size in
  let bytes = Obj.reachable_words (Obj.repr inv.Tcloud.Setup.devices) * 8 in
  check bool_c
    (Printf.sprintf "%d bytes <= 2.5 MB" bytes)
    true
    (bytes <= 2_500_000)

(* The initial tree at the same size: 6 011 nodes, 4 000 of them hosts with
   three attributes.  With each node holding a value array and sharing its
   kind's name array it takes 1.11 MB; 22 words per host node (an
   attribute map) would take it past the bound. *)
let test_tree_footprint () =
  let size =
    Experiments.Perf.deployment_size
      { Experiments.Perf.default_config with Experiments.Perf.hosts = 4_000 }
  in
  let inv = Tcloud.Setup.build ~rng:(Random.State.make [| 1 |]) size in
  let bytes = Obj.reachable_words (Obj.repr inv.Tcloud.Setup.tree) * 8 in
  check bool_c
    (Printf.sprintf "%d bytes <= 1.25 MB" bytes)
    true
    (bytes <= 1_250_000)

let test_controller_config_has_repair_rules () =
  check bool_c "repair rules wired" true
    (List.length Tcloud.Setup.controller_config.Controller.repair_rules >= 2)

let suite =
  [
    ("action: import/unimport", `Quick, test_action_import_unimport);
    ("action: createVM requires import", `Quick, test_action_create_vm_requires_import);
    ("action: vlan lifecycle", `Quick, test_action_vlan_lifecycle);
    ("undo: removeVM recreates from pre-tree", `Quick, test_remove_vm_undo_recreates);
    ("undo: removeImage irreversible, ordered last", `Quick, test_remove_image_irreversible);
    ("constraint: storage capacity", `Quick, test_storage_capacity_constraint);
    ("constraint: vlan capacity", `Quick, test_vlan_capacity_constraint);
    ("proc: spawnVMWithNetwork", `Quick, test_spawn_with_network);
    ("setup: layers consistent at t0", `Quick, test_setup_layers_consistent);
    ("setup: prepopulated VMs usable", `Quick, test_setup_prepopulated_spawnable);
    ("setup: scales", `Quick, test_setup_scales);
    ("setup: controller config", `Quick, test_controller_config_has_repair_rules);
    ("setup: device footprint at ec2-burst size", `Quick, test_device_footprint);
    ("setup: tree footprint at ec2-burst size", `Quick, test_tree_footprint);
    ("setup: one names array per kind", `Quick, test_setup_one_names_array_per_kind);
    ("proc: malformed VM name aborts", `Quick, test_proc_malformed_name_aborts);
  ]

let () = Alcotest.run "tcloud" [ ("tcloud", suite) ]
