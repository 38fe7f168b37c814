module Schema = Devices.Schema
module Dsl = Tropic.Dsl
module Value = Data.Value

let image_of_vm vm = vm ^ ".img"

(* ------------------------------------------------------------------ *)
(* Argument decoding (procedures abort on malformed arguments) *)

let str_arg args i =
  match List.nth_opt args i with
  | Some (Value.Str s) -> s
  | Some _ | None -> Dsl.abort (Printf.sprintf "argument %d: expected string" i)

let int_arg args i =
  match List.nth_opt args i with
  | Some (Value.Int n) -> n
  | Some _ | None -> Dsl.abort (Printf.sprintf "argument %d: expected int" i)

let path_arg args i =
  match Data.Path.of_string (str_arg args i) with
  | Ok path -> path
  | Error reason -> Dsl.abort (Printf.sprintf "argument %d: %s" i reason)

let vm_attr ctx host_path vm name =
  if not (Data.Path.valid_segment vm) then
    Dsl.abort (Printf.sprintf "%S is not a valid VM name" vm);
  match Dsl.get_attr ctx (Data.Path.child host_path vm) name with
  | Some v -> v
  | None ->
    Dsl.abort
      (Printf.sprintf "vm %s has no attribute %s on %s" vm name
         (Data.Path.to_string host_path))

(* ------------------------------------------------------------------ *)
(* VM life cycle (Table 1 and §5) *)

(* spawnVM vm template mem storage host — the execution log of Table 1. *)
let spawn_vm ctx args =
  let vm = str_arg args 0 in
  let template = str_arg args 1 in
  let mem_mb = int_arg args 2 in
  let storage = path_arg args 3 in
  let host = path_arg args 4 in
  let image = image_of_vm vm in
  Dsl.act ctx storage ~action:Schema.act_clone_image
    ~args:[ Value.Str template; Value.Str image ];
  Dsl.act ctx storage ~action:Schema.act_export_image ~args:[ Value.Str image ];
  Dsl.act ctx host ~action:Schema.act_import_image ~args:[ Value.Str image ];
  Dsl.act ctx host ~action:Schema.act_create_vm
    ~args:[ Value.Str vm; Value.Str image; Value.Int mem_mb ];
  Dsl.act ctx host ~action:Schema.act_start_vm ~args:[ Value.Str vm ]

let start_vm ctx args =
  let host = path_arg args 0 in
  let vm = str_arg args 1 in
  Dsl.act ctx host ~action:Schema.act_start_vm ~args:[ Value.Str vm ]

let stop_vm ctx args =
  let host = path_arg args 0 in
  let vm = str_arg args 1 in
  Dsl.act ctx host ~action:Schema.act_stop_vm ~args:[ Value.Str vm ]

(* destroyVM host storage vm — reversible steps first, destructive
   (irreversible) removals last, so a late failure can still roll back. *)
let destroy_vm ctx args =
  let host = path_arg args 0 in
  let storage = path_arg args 1 in
  let vm = str_arg args 2 in
  let image = image_of_vm vm in
  let state = vm_attr ctx host vm Schema.attr_state in
  if Value.equal state (Value.Str Schema.state_running) then
    Dsl.act ctx host ~action:Schema.act_stop_vm ~args:[ Value.Str vm ];
  Dsl.act ctx host ~action:Schema.act_remove_vm ~args:[ Value.Str vm ];
  Dsl.act ctx host ~action:Schema.act_unimport_image ~args:[ Value.Str image ];
  Dsl.act ctx storage ~action:Schema.act_unexport_image ~args:[ Value.Str image ];
  Dsl.act ctx storage ~action:Schema.act_remove_image ~args:[ Value.Str image ]

(* migrateVM src dst vm — the §6.2 "VM type" service rule: migration across
   hypervisor types is illegal and aborts before any action runs. *)
let migrate_vm ctx args =
  let src = path_arg args 0 in
  let dst = path_arg args 1 in
  let vm = str_arg args 2 in
  let hypervisor_of host =
    match Dsl.get_attr ctx host Schema.attr_hypervisor with
    | Some (Value.Str h) -> h
    | Some _ | None ->
      Dsl.abort
        (Printf.sprintf "host %s has no hypervisor attribute"
           (Data.Path.to_string host))
  in
  let src_hv = hypervisor_of src and dst_hv = hypervisor_of dst in
  if not (String.equal src_hv dst_hv) then
    Dsl.abort
      (Printf.sprintf "cannot migrate %s: hypervisor %s at source, %s at target"
         vm src_hv dst_hv);
  let image =
    match vm_attr ctx src vm Schema.attr_image with
    | Value.Str image -> image
    | _ -> Dsl.abort (Printf.sprintf "vm %s has a malformed image attribute" vm)
  in
  let mem_mb =
    match vm_attr ctx src vm Schema.attr_mem_mb with
    | Value.Int mem -> mem
    | _ -> Dsl.abort (Printf.sprintf "vm %s has a malformed memory attribute" vm)
  in
  let was_running =
    Value.equal (vm_attr ctx src vm Schema.attr_state)
      (Value.Str Schema.state_running)
  in
  if was_running then
    Dsl.act ctx src ~action:Schema.act_stop_vm ~args:[ Value.Str vm ];
  Dsl.act ctx dst ~action:Schema.act_import_image ~args:[ Value.Str image ];
  Dsl.act ctx dst ~action:Schema.act_create_vm
    ~args:[ Value.Str vm; Value.Str image; Value.Int mem_mb ];
  if was_running then
    Dsl.act ctx dst ~action:Schema.act_start_vm ~args:[ Value.Str vm ];
  Dsl.act ctx src ~action:Schema.act_remove_vm ~args:[ Value.Str vm ];
  Dsl.act ctx src ~action:Schema.act_unimport_image ~args:[ Value.Str image ]

(* ------------------------------------------------------------------ *)
(* Network procedures *)

let create_vlan ctx args =
  let switch = path_arg args 0 in
  let vlan = int_arg args 1 in
  let name = str_arg args 2 in
  Dsl.act ctx switch ~action:Schema.act_create_vlan
    ~args:[ Value.Int vlan; Value.Str name ]

let remove_vlan ctx args =
  let switch = path_arg args 0 in
  let vlan = int_arg args 1 in
  Dsl.act ctx switch ~action:Schema.act_remove_vlan ~args:[ Value.Int vlan ]

let vm_port vm = vm ^ ".eth0"

let attach_vm_vlan ctx args =
  let switch = path_arg args 0 in
  let vlan = int_arg args 1 in
  let vm = str_arg args 2 in
  Dsl.act ctx switch ~action:Schema.act_add_port
    ~args:[ Value.Int vlan; Value.Str (vm_port vm) ]

let detach_vm_vlan ctx args =
  let switch = path_arg args 0 in
  let vlan = int_arg args 1 in
  let vm = str_arg args 2 in
  Dsl.act ctx switch ~action:Schema.act_remove_port
    ~args:[ Value.Int vlan; Value.Str (vm_port vm) ]

(* spawnVM composed with tenant networking — procedures calling
   procedures, the composition the DSL is meant for. *)
let spawn_vm_with_network ctx args =
  let vm = str_arg args 0 in
  let switch = str_arg args 5 in
  let vlan = int_arg args 6 in
  let spawn_args =
    [ List.nth args 0; List.nth args 1; List.nth args 2; List.nth args 3;
      List.nth args 4 ]
  in
  Dsl.call ctx ~proc:"spawnVM" ~args:spawn_args;
  Dsl.call ctx ~proc:"attachVmVlan"
    ~args:[ Value.Str switch; Value.Int vlan; Value.Str vm ]

let register_all env =
  List.iter
    (fun (name, body) -> Dsl.register_proc env ~name body)
    [
      "spawnVM", spawn_vm;
      "startVM", start_vm;
      "stopVM", stop_vm;
      "destroyVM", destroy_vm;
      "migrateVM", migrate_vm;
      "createVlan", create_vlan;
      "removeVlan", remove_vlan;
      "attachVmVlan", attach_vm_vlan;
      "detachVmVlan", detach_vm_vlan;
      "spawnVMWithNetwork", spawn_vm_with_network;
    ]

(* ------------------------------------------------------------------ *)
(* Argument builders *)

let spawn_vm_args ~vm ~template ~mem_mb ~storage ~host =
  [ Value.Str vm; Value.Str template; Value.Int mem_mb; Value.Str storage;
    Value.Str host ]

let start_vm_args ~host ~vm = [ Value.Str host; Value.Str vm ]
let stop_vm_args ~host ~vm = [ Value.Str host; Value.Str vm ]

let destroy_vm_args ~host ~storage ~vm =
  [ Value.Str host; Value.Str storage; Value.Str vm ]

let migrate_vm_args ~src ~dst ~vm = [ Value.Str src; Value.Str dst; Value.Str vm ]

let spawn_vm_with_network_args ~vm ~template ~mem_mb ~storage ~host ~switch
    ~vlan =
  spawn_vm_args ~vm ~template ~mem_mb ~storage ~host
  @ [ Value.Str switch; Value.Int vlan ]

let create_vlan_args ~switch ~vlan ~name =
  [ Value.Str switch; Value.Int vlan; Value.Str name ]

let remove_vlan_args ~switch ~vlan = [ Value.Str switch; Value.Int vlan ]

let attach_vm_vlan_args ~switch ~vlan ~vm =
  [ Value.Str switch; Value.Int vlan; Value.Str vm ]

let detach_vm_vlan_args ~switch ~vlan ~vm =
  [ Value.Str switch; Value.Int vlan; Value.Str vm ]
