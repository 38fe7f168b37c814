module Schema = Devices.Schema

type size = {
  compute_hosts : int;
  host_mem_mb : int;
  hypervisors : string list;
  storage_hosts : int;
  storage_capacity_mb : int;
  templates : (string * int) list;
  switches : int;
  max_vlans : int;
  prepopulated_vms_per_host : int;
  prepop_vm_mem_mb : int;
}

let small =
  {
    compute_hosts = 4;
    host_mem_mb = 8192;
    hypervisors = [ "xen"; "kvm" ];
    storage_hosts = 2;
    storage_capacity_mb = 500_000;
    templates = [ ("base.img", 10_240) ];
    switches = 1;
    max_vlans = 64;
    prepopulated_vms_per_host = 0;
    prepop_vm_mem_mb = 1024;
  }

let paper_scale =
  {
    compute_hosts = 12_500;
    host_mem_mb = 8192;
    hypervisors = [ "xen" ];
    storage_hosts = 3_125;
    storage_capacity_mb = 2_000_000;
    templates = [ ("base.img", 10_240) ];
    switches = 8;
    max_vlans = 4096;
    prepopulated_vms_per_host = 0;
    prepop_vm_mem_mb = 1024;
  }

type t = {
  env : Tropic.Dsl.env;
  tree : Data.Tree.t;
  devices : Devices.Device.t list;
  computes : (Data.Path.t * Devices.Compute.t) array;
  storages : (Data.Path.t * Devices.Storage.t) array;
  switches : (Data.Path.t * Devices.Network.t) array;
}

let controller_config =
  {
    Tropic.Controller.default_config with
    Tropic.Controller.repair_rules = Rules.repair_rules;
  }

let env_without_constraints () =
  let env = Tropic.Dsl.create_env () in
  Actions.register_all env;
  Procs.register_all env;
  env

let make_env () =
  let env = env_without_constraints () in
  Rules.register_constraints env;
  env

let compute_path i = Data.Path.v (Printf.sprintf "/vmRoot/host%05d" i)
let storage_path i = Data.Path.v (Printf.sprintf "/storageRoot/storage%05d" i)
let switch_path i = Data.Path.v (Printf.sprintf "/netRoot/switch%03d" i)

let prepop_vm_name ~host ~index = Printf.sprintf "pre%05d-%d" host index

let ok_tree what = function
  | Ok t -> t
  | Error e -> failwith (what ^ ": " ^ Data.Tree.error_to_string e)

let build ?(timing = `Instant) ?rng size =
  let computes =
    Array.init size.compute_hosts (fun i ->
        let root = compute_path i in
        let hypervisor =
          List.nth size.hypervisors (i mod List.length size.hypervisors)
        in
        let host =
          Devices.Compute.create ~timing ?rng ~root ~mem_mb:size.host_mem_mb
            ~hypervisor ()
        in
        (root, host))
  in
  let storages =
    Array.init size.storage_hosts (fun i ->
        let root = storage_path i in
        let host =
          Devices.Storage.create ~timing ?rng ~root
            ~capacity_mb:size.storage_capacity_mb ()
        in
        List.iter
          (fun (name, size_mb) ->
            Devices.Storage.add_template host ~name ~size_mb)
          size.templates;
        (root, host))
  in
  let switches =
    Array.init size.switches (fun i ->
        let root = switch_path i in
        ( root,
          Devices.Network.create ~timing ?rng ~root ~max_vlans:size.max_vlans
            () ))
  in
  (* Prepopulated VMs exist on both layers from the start: stopped VMs with
     their cloned, exported images. *)
  for h = 0 to size.compute_hosts - 1 do
    for k = 0 to size.prepopulated_vms_per_host - 1 do
      let vm = prepop_vm_name ~host:h ~index:k in
      let image = Procs.image_of_vm vm in
      let _, compute = computes.(h) in
      Devices.Compute.preload_vm compute ~name:vm ~image
        ~mem_mb:size.prepop_vm_mem_mb ~state:`Stopped;
      let storage_idx = h mod size.storage_hosts in
      let _, storage = storages.(storage_idx) in
      Devices.Storage.preload_image storage ~name:image
        ~size_mb:(match size.templates with (_, s) :: _ -> s | [] -> 10_240)
        ~exported:true
    done
  done;
  (* The initial logical tree is built from the devices' own exports, so
     the two layers start consistent by construction. *)
  let tree = Data.Tree.empty in
  let tree =
    List.fold_left
      (fun tree (kind, name) ->
        ok_tree "insert root"
          (Data.Tree.insert tree (Data.Path.v ("/" ^ name)) ~kind ()))
      tree
      [
        Schema.vm_root_kind, "vmRoot";
        Schema.storage_root_kind, "storageRoot";
        Schema.net_root_kind, "netRoot";
      ]
  in
  let graft tree (root, device) =
    let tree =
      match Data.Tree.find tree root with
      | Some _ -> tree
      | None ->
        ok_tree "insert stub" (Data.Tree.insert tree root ~kind:"stub" ())
    in
    ok_tree "graft device"
      (Data.Tree.replace_subtree tree root (Devices.Device.export device))
  in
  let all_devices =
    Array.to_list (Array.map (fun (_, c) -> Devices.Compute.device c) computes)
    @ Array.to_list (Array.map (fun (_, s) -> Devices.Storage.device s) storages)
    @ Array.to_list (Array.map (fun (_, n) -> Devices.Network.device n) switches)
  in
  let tree =
    List.fold_left
      (fun tree device -> graft tree (Devices.Device.root device, device))
      tree all_devices
  in
  {
    env = make_env ();
    tree;
    devices = all_devices;
    computes;
    storages;
    switches;
  }
