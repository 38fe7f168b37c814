type vm = { mutable state : [ `Stopped | `Running ]; vm_mem_mb : int; image : string }

type t = {
  host_mem_mb : int;
  host_hypervisor : string;
  vms : (string, vm) Hashtbl.t;
  imported : (string, unit) Hashtbl.t;
  handle : Device.t Lazy.t;
}

let state_string = function
  | `Stopped -> Schema.state_stopped
  | `Running -> Schema.state_running

let export_state host () =
  let vm_children =
    Hashtbl.fold
      (fun name vm acc ->
        let node =
          Data.Tree.make_node ~kind:Schema.vm_kind
            ~attrs:
              [
                Schema.attr_state, Data.Value.Str (state_string vm.state);
                Schema.attr_mem_mb, Data.Value.Int vm.vm_mem_mb;
                Schema.attr_image, Data.Value.Str vm.image;
              ]
            ()
        in
        (name, node) :: acc)
      host.vms []
  in
  let imported =
    Hashtbl.fold (fun k () acc -> k :: acc) host.imported []
    |> List.sort String.compare
    |> List.map (fun i -> Data.Value.Str i)
  in
  Data.Tree.make_node ~kind:Schema.vm_host_kind
    ~attrs:
      [
        Schema.attr_mem_mb, Data.Value.Int host.host_mem_mb;
        Schema.attr_hypervisor, Data.Value.Str host.host_hypervisor;
        Schema.attr_imported, Data.Value.List imported;
      ]
    ~children:vm_children ()

let ( let* ) r f = Result.bind r f

let dispatch host ~action ~args =
  if String.equal action Schema.act_import_image then
    let* image = Device.str_arg args 0 in
    if Hashtbl.mem host.imported image then
      Error (Printf.sprintf "image %s already imported" image)
    else Ok (Hashtbl.replace host.imported image ())
  else if String.equal action Schema.act_unimport_image then
    let* image = Device.str_arg args 0 in
    if not (Hashtbl.mem host.imported image) then
      Error (Printf.sprintf "image %s not imported" image)
    else if
      Hashtbl.fold
        (fun _ vm used -> used || String.equal vm.image image)
        host.vms false
    then Error (Printf.sprintf "image %s still used by a VM" image)
    else Ok (Hashtbl.remove host.imported image)
  else if String.equal action Schema.act_create_vm then
    let* name = Device.str_arg args 0 in
    let* image = Device.str_arg args 1 in
    let* mem = Device.int_arg args 2 in
    if Hashtbl.mem host.vms name then
      Error (Printf.sprintf "vm %s already exists" name)
    else if not (Hashtbl.mem host.imported image) then
      Error (Printf.sprintf "image %s not imported" image)
    else Ok (Hashtbl.replace host.vms name { state = `Stopped; vm_mem_mb = mem; image })
  else if String.equal action Schema.act_remove_vm then
    let* name = Device.str_arg args 0 in
    (match Hashtbl.find_opt host.vms name with
     | None -> Error (Printf.sprintf "vm %s does not exist" name)
     | Some { state = `Running; _ } ->
       Error (Printf.sprintf "vm %s is running" name)
     | Some { state = `Stopped; _ } -> Ok (Hashtbl.remove host.vms name))
  else if String.equal action Schema.act_start_vm then
    let* name = Device.str_arg args 0 in
    (match Hashtbl.find_opt host.vms name with
     | None -> Error (Printf.sprintf "vm %s does not exist" name)
     | Some ({ state = `Stopped; _ } as vm) -> Ok (vm.state <- `Running)
     | Some { state = `Running; _ } ->
       Error (Printf.sprintf "vm %s already running" name))
  else if String.equal action Schema.act_stop_vm then
    let* name = Device.str_arg args 0 in
    (match Hashtbl.find_opt host.vms name with
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
      vms = Hashtbl.create 8;
      imported = Hashtbl.create 8;
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
  if not (Hashtbl.mem host.imported image) then
    Hashtbl.replace host.imported image ();
  Hashtbl.replace host.vms name { state; vm_mem_mb = mem_mb; image }
let mem_mb host = host.host_mem_mb

let vm_names host =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) host.vms [])

let vm_state host name =
  Option.map (fun vm -> vm.state) (Hashtbl.find_opt host.vms name)

let used_mem_mb host =
  Hashtbl.fold (fun _ vm acc -> acc + vm.vm_mem_mb) host.vms 0

let power_cycle host =
  Hashtbl.iter (fun _ vm -> vm.state <- `Stopped) host.vms

let force_remove_vm host name = Hashtbl.remove host.vms name

let force_set_vm_state host name state =
  match Hashtbl.find_opt host.vms name with
  | Some vm -> vm.state <- state
  | None -> ()
