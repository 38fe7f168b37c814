(* Tests for the simulated physical devices. *)

open Devices

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string
let v_str s = Data.Value.Str s
let v_int i = Data.Value.Int i

let vm_state_c =
  Alcotest.testable
    (fun fmt s ->
      Format.pp_print_string fmt
        (match s with `Running -> "running" | `Stopped -> "stopped"))
    ( = )

let ok what = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" what (Device.error_to_string e)

let err what = function
  | Ok () -> Alcotest.failf "%s: expected an error" what
  | Error _ -> ()

let pass what = function
  | Fault.Pass -> ()
  | Fault.Fail (_, msg) -> Alcotest.failf "%s: injected %s" what msg
  | Fault.Hang -> Alcotest.failf "%s: injected hang" what

let fail_verdict what = function
  | Fault.Pass -> Alcotest.failf "%s: expected an injected fault" what
  | Fault.Fail _ -> ()
  | Fault.Hang -> Alcotest.failf "%s: expected a failure, got a hang" what

let set_probability f p =
  match Fault.set_probability f p with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "set_probability: %s" msg

let mk_compute () =
  Compute.create ~root:(Data.Path.v "/vmRoot/h1") ~mem_mb:8192
    ~hypervisor:"xen" ()

let mk_storage () =
  let s = Storage.create ~root:(Data.Path.v "/storageRoot/s1") ~capacity_mb:100_000 () in
  Storage.add_template s ~name:"tmpl" ~size_mb:10_000;
  s

let invoke d = Device.invoke d

(* ------------------------------------------------------------------ *)
(* Compute host *)

let spawn_vm_actions host name =
  let d = Compute.device host in
  ok "import" (invoke d ~action:Schema.act_import_image ~args:[ v_str (name ^ ".img") ]);
  ok "create"
    (invoke d ~action:Schema.act_create_vm
       ~args:[ v_str name; v_str (name ^ ".img"); v_int 1024 ]);
  ok "start" (invoke d ~action:Schema.act_start_vm ~args:[ v_str name ])

let test_compute_vm_lifecycle () =
  let host = mk_compute () in
  let d = Compute.device host in
  spawn_vm_actions host "vm1";
  check (Alcotest.option vm_state_c) "running" (Some `Running)
    (Compute.vm_state host "vm1");
  check int_c "used memory" 1024 (Compute.used_mem_mb host);
  err "start running vm" (invoke d ~action:Schema.act_start_vm ~args:[ v_str "vm1" ]);
  err "remove running vm" (invoke d ~action:Schema.act_remove_vm ~args:[ v_str "vm1" ]);
  ok "stop" (invoke d ~action:Schema.act_stop_vm ~args:[ v_str "vm1" ]);
  ok "remove" (invoke d ~action:Schema.act_remove_vm ~args:[ v_str "vm1" ]);
  check (Alcotest.list string_c) "no vms" [] (Compute.vm_names host)

let test_compute_preconditions () =
  let host = mk_compute () in
  let d = Compute.device host in
  err "create without image"
    (invoke d ~action:Schema.act_create_vm
       ~args:[ v_str "vm1"; v_str "ghost.img"; v_int 512 ]);
  ok "import" (invoke d ~action:Schema.act_import_image ~args:[ v_str "a.img" ]);
  err "double import" (invoke d ~action:Schema.act_import_image ~args:[ v_str "a.img" ]);
  ok "create"
    (invoke d ~action:Schema.act_create_vm ~args:[ v_str "vm1"; v_str "a.img"; v_int 512 ]);
  err "unimport while used"
    (invoke d ~action:Schema.act_unimport_image ~args:[ v_str "a.img" ]);
  err "duplicate vm"
    (invoke d ~action:Schema.act_create_vm ~args:[ v_str "vm1"; v_str "a.img"; v_int 512 ]);
  err "bad args" (invoke d ~action:Schema.act_create_vm ~args:[ v_int 3 ]);
  err "unknown action" (invoke d ~action:"fooBar" ~args:[])

let test_compute_export () =
  let host = mk_compute () in
  spawn_vm_actions host "vm1";
  let node = Device.export (Compute.device host) in
  check string_c "kind" Schema.vm_host_kind node.Data.Tree.kind;
  (match Data.Tree.Smap.find_opt "vm1" node.Data.Tree.children with
   | Some vm_node ->
     (match Data.Tree.attr vm_node Schema.attr_state with
      | Some (Data.Value.Str s) -> check string_c "state" Schema.state_running s
      | _ -> Alcotest.fail "state attr")
   | None -> Alcotest.fail "vm1 exported")

let test_compute_power_cycle () =
  let host = mk_compute () in
  spawn_vm_actions host "vm1";
  spawn_vm_actions host "vm2";
  Compute.power_cycle host;
  check (Alcotest.option vm_state_c) "vm1 stopped" (Some `Stopped)
    (Compute.vm_state host "vm1");
  check (Alcotest.option vm_state_c) "vm2 stopped" (Some `Stopped)
    (Compute.vm_state host "vm2")

let test_device_offline () =
  let host = mk_compute () in
  let d = Compute.device host in
  Device.set_online d false;
  err "offline fails" (invoke d ~action:Schema.act_import_image ~args:[ v_str "x" ]);
  Device.set_online d true;
  ok "back online" (invoke d ~action:Schema.act_import_image ~args:[ v_str "x" ]);
  check int_c "failure counted" 1 (Device.failures d)

let test_fault_injection () =
  let host = mk_compute () in
  let d = Compute.device host in
  Fault.fail_next (Device.faults d) ~action:Schema.act_start_vm;
  ok "import" (invoke d ~action:Schema.act_import_image ~args:[ v_str "a.img" ]);
  ok "create"
    (invoke d ~action:Schema.act_create_vm ~args:[ v_str "vm"; v_str "a.img"; v_int 256 ]);
  err "injected failure" (invoke d ~action:Schema.act_start_vm ~args:[ v_str "vm" ]);
  ok "second try succeeds" (invoke d ~action:Schema.act_start_vm ~args:[ v_str "vm" ]);
  check int_c "one injection" 1 (Fault.injected (Device.faults d))

let test_fault_always_and_clear () =
  let f = Fault.create () in
  let rng = Random.State.make [| 1 |] in
  Fault.fail_always f ~action:"op";
  fail_verdict "1st" (Fault.check f ~rng ~action:"op");
  fail_verdict "2nd" (Fault.check f ~rng ~action:"op");
  pass "other action fine" (Fault.check f ~rng ~action:"other");
  Fault.clear f ~action:"op";
  pass "cleared" (Fault.check f ~rng ~action:"op")

let test_fault_probability () =
  let f = Fault.create () in
  let rng = Random.State.make [| 5 |] in
  set_probability f 1.0;
  fail_verdict "p=1 always fails" (Fault.check f ~rng ~action:"x");
  set_probability f 0.;
  pass "p=0 never fails" (Fault.check f ~rng ~action:"x")

let test_fault_probability_clamp () =
  let f = Fault.create () in
  set_probability f 3.7;
  check (Alcotest.float 1e-9) "clamped high" 1.0 (Fault.probability f);
  set_probability f (-0.5);
  check (Alcotest.float 1e-9) "clamped low" 0.0 (Fault.probability f);
  (match Fault.set_probability f Float.nan with
   | Ok () -> Alcotest.fail "NaN probability accepted"
   | Error _ -> ());
  check (Alcotest.float 1e-9) "NaN left probability unchanged" 0.0
    (Fault.probability f)

let test_fault_severity () =
  let f = Fault.create () in
  let rng = Random.State.make [| 2 |] in
  Fault.fail_next f ~severity:Fault.Transient ~action:"op";
  (match Fault.check f ~rng ~action:"op" with
   | Fault.Fail (Fault.Transient, _) -> ()
   | _ -> Alcotest.fail "expected a transient injected fault");
  Fault.fail_next f ~action:"op";
  (match Fault.check f ~rng ~action:"op" with
   | Fault.Fail (Fault.Permanent, _) -> ()
   | _ -> Alcotest.fail "planned faults default to permanent");
  (* Background (probability-driven) faults are always transient. *)
  set_probability f 1.0;
  (match Fault.check f ~rng ~action:"op" with
   | Fault.Fail (Fault.Transient, _) -> ()
   | _ -> Alcotest.fail "background faults must be transient")

let test_fault_hang_next () =
  let f = Fault.create () in
  let rng = Random.State.make [| 3 |] in
  Fault.hang_next f ~action:"op";
  (match Fault.check f ~rng ~action:"op" with
   | Fault.Hang -> ()
   | _ -> Alcotest.fail "expected a hang verdict");
  pass "one-shot" (Fault.check f ~rng ~action:"op");
  check int_c "hang counted" 1 (Fault.hangs f)

(* A hang plan makes [Device.invoke] suspend forever: the invoking
   process never resumes, and the simulation drains without it. *)
let test_device_hang_in_sim () =
  let sim = Des.Sim.create () in
  let host =
    Compute.create ~timing:`Process
      ~latency:(fun _ -> 1.0)
      ~rng:(Des.Sim.rng sim)
      ~root:(Data.Path.v "/vmRoot/h1") ~mem_mb:1024 ~hypervisor:"xen" ()
  in
  let d = Compute.device host in
  Fault.hang_next (Device.faults d) ~action:Schema.act_import_image;
  let finished = ref false in
  ignore
    (Des.Proc.spawn ~name:"hung" sim (fun () ->
         ignore (invoke d ~action:Schema.act_import_image ~args:[ v_str "a" ]);
         finished := true));
  ignore (Des.Sim.run sim);
  check bool_c "invocation never returned" false !finished;
  check int_c "hang counted" 1 (Fault.hangs (Device.faults d));
  (* The plan was consumed: a retry would pass. *)
  let rng = Random.State.make [| 4 |] in
  pass "plan consumed" (Fault.check (Device.faults d) ~rng ~action:Schema.act_import_image)

let test_device_latency_in_sim () =
  let sim = Des.Sim.create () in
  let host =
    Compute.create ~timing:`Process
      ~latency:(fun _ -> 1.5)
      ~rng:(Des.Sim.rng sim)
      ~root:(Data.Path.v "/vmRoot/h1") ~mem_mb:1024 ~hypervisor:"xen" ()
  in
  let elapsed = ref 0. in
  ignore
    (Des.Proc.spawn sim (fun () ->
         let t0 = Des.Proc.now () in
         ok "import"
           (invoke (Compute.device host) ~action:Schema.act_import_image
              ~args:[ v_str "a.img" ]);
         elapsed := Des.Proc.now () -. t0));
  ignore (Des.Sim.run sim);
  check (Alcotest.float 1e-9) "took latency" 1.5 !elapsed

(* ------------------------------------------------------------------ *)
(* Storage host *)

let test_storage_clone_export () =
  let s = mk_storage () in
  let d = Storage.device s in
  ok "clone"
    (invoke d ~action:Schema.act_clone_image ~args:[ v_str "tmpl"; v_str "vm1.img" ]);
  check bool_c "clone exists" true (List.mem "vm1.img" (Storage.image_names s));
  check bool_c "clone not template" false (Storage.is_template s "vm1.img");
  ok "export" (invoke d ~action:Schema.act_export_image ~args:[ v_str "vm1.img" ]);
  check bool_c "exported" true (Storage.is_exported s "vm1.img");
  err "remove while exported"
    (invoke d ~action:Schema.act_remove_image ~args:[ v_str "vm1.img" ]);
  ok "unexport" (invoke d ~action:Schema.act_unexport_image ~args:[ v_str "vm1.img" ]);
  ok "remove" (invoke d ~action:Schema.act_remove_image ~args:[ v_str "vm1.img" ]);
  check bool_c "gone" false (List.mem "vm1.img" (Storage.image_names s))

let test_storage_preconditions () =
  let s = mk_storage () in
  let d = Storage.device s in
  err "clone from missing template"
    (invoke d ~action:Schema.act_clone_image ~args:[ v_str "ghost"; v_str "x" ]);
  ok "clone" (invoke d ~action:Schema.act_clone_image ~args:[ v_str "tmpl"; v_str "x" ]);
  err "clone from non-template"
    (invoke d ~action:Schema.act_clone_image ~args:[ v_str "x"; v_str "y" ]);
  err "remove template" (invoke d ~action:Schema.act_remove_image ~args:[ v_str "tmpl" ]);
  err "double export after none"
    (invoke d ~action:Schema.act_unexport_image ~args:[ v_str "x" ])

let test_storage_capacity () =
  let s = Storage.create ~root:(Data.Path.v "/storageRoot/tiny") ~capacity_mb:25_000 () in
  Storage.add_template s ~name:"tmpl" ~size_mb:10_000;
  let d = Storage.device s in
  ok "first clone"
    (invoke d ~action:Schema.act_clone_image ~args:[ v_str "tmpl"; v_str "a" ]);
  err "out of space"
    (invoke d ~action:Schema.act_clone_image ~args:[ v_str "tmpl"; v_str "b" ]);
  check int_c "used" 20_000 (Storage.used_mb s)

(* ------------------------------------------------------------------ *)
(* Switch *)

let test_switch_vlans () =
  let sw = Network.create ~root:(Data.Path.v "/netRoot/sw1") ~max_vlans:2 () in
  let d = Network.device sw in
  ok "create vlan"
    (invoke d ~action:Schema.act_create_vlan ~args:[ v_int 100; v_str "tenantA" ]);
  err "duplicate vlan"
    (invoke d ~action:Schema.act_create_vlan ~args:[ v_int 100; v_str "again" ]);
  ok "add port" (invoke d ~action:Schema.act_add_port ~args:[ v_int 100; v_str "vm1.eth0" ]);
  err "remove vlan with ports"
    (invoke d ~action:Schema.act_remove_vlan ~args:[ v_int 100 ]);
  ok "remove port"
    (invoke d ~action:Schema.act_remove_port ~args:[ v_int 100; v_str "vm1.eth0" ]);
  ok "remove vlan" (invoke d ~action:Schema.act_remove_vlan ~args:[ v_int 100 ])

let test_switch_capacity () =
  let sw = Network.create ~root:(Data.Path.v "/netRoot/sw1") ~max_vlans:1 () in
  let d = Network.device sw in
  ok "first" (invoke d ~action:Schema.act_create_vlan ~args:[ v_int 1; v_str "a" ]);
  err "at capacity" (invoke d ~action:Schema.act_create_vlan ~args:[ v_int 2; v_str "b" ])

let test_switch_export () =
  let sw = Network.create ~root:(Data.Path.v "/netRoot/sw1") ~max_vlans:8 () in
  let d = Network.device sw in
  ok "create" (invoke d ~action:Schema.act_create_vlan ~args:[ v_int 7; v_str "t" ]);
  ok "port" (invoke d ~action:Schema.act_add_port ~args:[ v_int 7; v_str "p1" ]);
  let node = Device.export d in
  match Data.Tree.Smap.find_opt "vlan0007" node.Data.Tree.children with
  | Some vlan ->
    (match Data.Tree.attr vlan Schema.attr_ports with
     | Some (Data.Value.List [ Data.Value.Str "p1" ]) -> ()
     | _ -> Alcotest.fail "ports attr")
  | None -> Alcotest.fail "vlan exported"

let suite =
  [
    ("compute: vm lifecycle", `Quick, test_compute_vm_lifecycle);
    ("compute: preconditions", `Quick, test_compute_preconditions);
    ("compute: export", `Quick, test_compute_export);
    ("compute: power cycle", `Quick, test_compute_power_cycle);
    ("device: offline", `Quick, test_device_offline);
    ("device: fault injection", `Quick, test_fault_injection);
    ("fault: always and clear", `Quick, test_fault_always_and_clear);
    ("fault: probability", `Quick, test_fault_probability);
    ("fault: probability clamp and NaN", `Quick, test_fault_probability_clamp);
    ("fault: severity classification", `Quick, test_fault_severity);
    ("fault: hang_next", `Quick, test_fault_hang_next);
    ("device: hang in sim", `Quick, test_device_hang_in_sim);
    ("device: latency in sim", `Quick, test_device_latency_in_sim);
    ("storage: clone/export", `Quick, test_storage_clone_export);
    ("storage: preconditions", `Quick, test_storage_preconditions);
    ("storage: capacity", `Quick, test_storage_capacity);
    ("switch: vlans", `Quick, test_switch_vlans);
    ("switch: capacity", `Quick, test_switch_capacity);
    ("switch: export", `Quick, test_switch_export);
  ]

let () = Alcotest.run "devices" [ ("devices", suite) ]
