module Smap = Data.Tree.Smap
module Sset = Set.Make (String)

type vm = { mutable state : [ `Stopped | `Running ]; vm_mem_mb : int; image : string }

(* Persistent maps in mutable fields: an idle host holds two empty values,
   where a [Hashtbl] would hold two bucket arrays. *)
type t = {
  host_mem_mb : int;
  host_hypervisor : string;
  mutable vms : vm Smap.t;
  mutable imported : Sset.t;
  handle : Device.t Lazy.t;
}

let state_string = function
  | `Stopped -> Schema.state_stopped
  | `Running -> Schema.state_running

(* Every exported VM, of every host, holds this maker's names array. *)
let vm_maker =
  Data.Tree.maker ~kind:Schema.vm_kind
    [ Schema.attr_state; Schema.attr_mem_mb; Schema.attr_image ]

let vm_node vm =
  vm_maker
    [
      Data.Value.Str (state_string vm.state);
      Data.Value.Int vm.vm_mem_mb;
      Data.Value.Str vm.image;
    ]

let export_state host () =
  let imported =
    List.map (fun i -> Data.Value.Str i) (Sset.elements host.imported)
  in
  let node =
    Data.Tree.make_node ~kind:Schema.vm_host_kind
      ~attrs:
        [
          Schema.attr_mem_mb, Data.Value.Int host.host_mem_mb;
          Schema.attr_hypervisor, Data.Value.Str host.host_hypervisor;
          Schema.attr_imported, Data.Value.List imported;
        ]
      ()
  in
  Data.Tree.with_children node (Smap.map vm_node host.vms)

let ( let* ) r f = Result.bind r f

let dispatch host ~action ~args =
  if String.equal action Schema.act_import_image then
    let* image = Device.str_arg args 0 in
    if Sset.mem image host.imported then
      Error (Printf.sprintf "image %s already imported" image)
    else Ok (host.imported <- Sset.add image host.imported)
  else if String.equal action Schema.act_unimport_image then
    let* image = Device.str_arg args 0 in
    if not (Sset.mem image host.imported) then
      Error (Printf.sprintf "image %s not imported" image)
    else if Smap.exists (fun _ vm -> String.equal vm.image image) host.vms then
      Error (Printf.sprintf "image %s still used by a VM" image)
    else Ok (host.imported <- Sset.remove image host.imported)
  else if String.equal action Schema.act_create_vm then
    let* name = Device.str_arg args 0 in
    let* image = Device.str_arg args 1 in
    let* mem = Device.int_arg args 2 in
    if Smap.mem name host.vms then
      Error (Printf.sprintf "vm %s already exists" name)
    else if not (Sset.mem image host.imported) then
      Error (Printf.sprintf "image %s not imported" image)
    else
      let vm = { state = `Stopped; vm_mem_mb = mem; image } in
      Ok (host.vms <- Smap.add name vm host.vms)
  else if String.equal action Schema.act_remove_vm then
    let* name = Device.str_arg args 0 in
    (match Smap.find_opt name host.vms with
     | None -> Error (Printf.sprintf "vm %s does not exist" name)
     | Some { state = `Running; _ } ->
       Error (Printf.sprintf "vm %s is running" name)
     | Some { state = `Stopped; _ } ->
       Ok (host.vms <- Smap.remove name host.vms))
  else if String.equal action Schema.act_start_vm then
    let* name = Device.str_arg args 0 in
    (match Smap.find_opt name host.vms with
     | None -> Error (Printf.sprintf "vm %s does not exist" name)
     | Some ({ state = `Stopped; _ } as vm) -> Ok (vm.state <- `Running)
     | Some { state = `Running; _ } ->
       Error (Printf.sprintf "vm %s already running" name))
  else if String.equal action Schema.act_stop_vm then
    let* name = Device.str_arg args 0 in
    (match Smap.find_opt name host.vms with
     | None -> Error (Printf.sprintf "vm %s does not exist" name)
     | Some ({ state = `Running; _ } as vm) -> Ok (vm.state <- `Stopped)
     | Some { state = `Stopped; _ } ->
       Error (Printf.sprintf "vm %s already stopped" name))
  else Error (Printf.sprintf "compute host: unknown action %s" action)

let create ?(timing = `Instant) ?latency ?rng ~root ~mem_mb ~hypervisor () =
  let latency = Option.value latency ~default:Device.default_latency in
  let rng =
    match rng with Some r -> r | None -> Random.State.make [| 2203 |]
  in
  let rec host =
    {
      host_mem_mb = mem_mb;
      host_hypervisor = hypervisor;
      vms = Smap.empty;
      imported = Sset.empty;
      handle =
        lazy
          (Device.make ~root ~kind:Schema.vm_host_kind ~timing ~latency ~rng
             ~dispatch:(fun ~action ~args -> dispatch host ~action ~args)
             ~export_state:(export_state host));
    }
  in
  host

let device host = Lazy.force host.handle

let preload_vm host ~name ~image ~mem_mb ~state =
  host.imported <- Sset.add image host.imported;
  host.vms <- Smap.add name { state; vm_mem_mb = mem_mb; image } host.vms
let mem_mb host = host.host_mem_mb

let vm_names host = List.map fst (Smap.bindings host.vms)

let vm_state host name =
  Option.map (fun vm -> vm.state) (Smap.find_opt name host.vms)

let used_mem_mb host = Smap.fold (fun _ vm acc -> acc + vm.vm_mem_mb) host.vms 0

let power_cycle host = Smap.iter (fun _ vm -> vm.state <- `Stopped) host.vms

let force_remove_vm host name = host.vms <- Smap.remove name host.vms

let force_set_vm_state host name state =
  match Smap.find_opt name host.vms with
  | Some vm -> vm.state <- state
  | None -> ()
