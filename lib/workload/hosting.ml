type op =
  | Spawn of { vm : string; host : int; storage : int; mem_mb : int }
  | Start of { vm : string; host : int }
  | Stop of { vm : string; host : int }
  | Migrate of { vm : string; src : int; dst : int }
  | Destroy of { vm : string; host : int; storage : int }

type weights = {
  w_spawn : float;
  w_start : float;
  w_stop : float;
  w_migrate : float;
  w_destroy : float;
}

let default_weights =
  { w_spawn = 0.4; w_start = 0.15; w_stop = 0.15; w_migrate = 0.2; w_destroy = 0.1 }

type config = {
  weights : weights;
  rate_per_second : float;
  duration_seconds : float;
  compute_hosts : int;
  storage_hosts : int;
  hypervisor_groups : int;
  vm_mem_mb : int;
}

let default_config =
  {
    weights = default_weights;
    rate_per_second = 1.0;
    duration_seconds = 300.;
    compute_hosts = 8;
    storage_hosts = 2;
    hypervisor_groups = 2;
    vm_mem_mb = 1024;
  }

(* Generator-side model of one VM's expected placement and state. *)
type vm_model = { name : string; mutable on : int; mutable running : bool }

let generate ?(seed = 7) config =
  let rng = Random.State.make [| seed |] in
  let vms : vm_model list ref = ref [] in
  let next_vm = ref 0 in
  let storage_of host = host mod config.storage_hosts in
  let pick_vm pred =
    match List.filter pred !vms with
    | [] -> None
    | candidates ->
      Some (List.nth candidates (Random.State.int rng (List.length candidates)))
  in
  let spawn () =
    incr next_vm;
    let vm =
      {
        name = Printf.sprintf "hv%05d" !next_vm;
        on = Random.State.int rng config.compute_hosts;
        running = true;
      }
    in
    vms := vm :: !vms;
    Spawn
      {
        vm = vm.name;
        host = vm.on;
        storage = storage_of vm.on;
        mem_mb = config.vm_mem_mb;
      }
  in
  let weights = config.weights in
  let choose () =
    let table =
      [| weights.w_spawn; weights.w_start; weights.w_stop; weights.w_migrate;
         weights.w_destroy |]
    in
    match Des.Dist.weighted_index rng table with
    | 0 -> Some (spawn ())
    | 1 ->
      (match pick_vm (fun vm -> not vm.running) with
       | Some vm ->
         vm.running <- true;
         Some (Start { vm = vm.name; host = vm.on })
       | None -> Some (spawn ()))
    | 2 ->
      (match pick_vm (fun vm -> vm.running) with
       | Some vm ->
         vm.running <- false;
         Some (Stop { vm = vm.name; host = vm.on })
       | None -> Some (spawn ()))
    | 3 ->
      (match pick_vm (fun _ -> config.compute_hosts > config.hypervisor_groups) with
       | Some vm ->
         let src = vm.on in
         let group = src mod config.hypervisor_groups in
         let compatible =
           List.filter
             (fun h -> h <> src && h mod config.hypervisor_groups = group)
             (List.init config.compute_hosts Fun.id)
         in
         (match compatible with
          | [] -> Some (spawn ())
          | hosts ->
            let dst = List.nth hosts (Random.State.int rng (List.length hosts)) in
            vm.on <- dst;
            Some (Migrate { vm = vm.name; src; dst }))
       | None -> Some (spawn ()))
    | _ ->
      (match pick_vm (fun _ -> true) with
       | Some vm ->
         vms := List.filter (fun other -> other != vm) !vms;
         Some
           (Destroy { vm = vm.name; host = vm.on; storage = storage_of vm.on })
       | None -> Some (spawn ()))
  in
  let rec go t acc =
    if t >= config.duration_seconds then List.rev acc
    else
      let dt = Des.Dist.exponential rng ~mean:(1. /. config.rate_per_second) in
      let t = t +. dt in
      if t >= config.duration_seconds then List.rev acc
      else
        match choose () with
        | Some op -> go t ((t, op) :: acc)
        | None -> go t acc
  in
  go 0. []

let to_submission ~host_path ~storage_path op =
  let v_str s = Data.Value.Str s in
  match op with
  | Spawn { vm; host; storage; mem_mb } ->
    ( "spawnVM",
      [ v_str vm; v_str "base.img"; Data.Value.Int mem_mb;
        v_str (storage_path storage); v_str (host_path host) ] )
  | Start { vm; host } -> ("startVM", [ v_str (host_path host); v_str vm ])
  | Stop { vm; host } -> ("stopVM", [ v_str (host_path host); v_str vm ])
  | Migrate { vm; src; dst } ->
    ("migrateVM", [ v_str (host_path src); v_str (host_path dst); v_str vm ])
  | Destroy { vm; host; storage } ->
    ( "destroyVM",
      [ v_str (host_path host); v_str (storage_path storage); v_str vm ] )

type mix = {
  n_spawn : int;
  n_start : int;
  n_stop : int;
  n_migrate : int;
  n_destroy : int;
}

let mix_of ops =
  List.fold_left
    (fun mix (_, op) ->
      match op with
      | Spawn _ -> { mix with n_spawn = mix.n_spawn + 1 }
      | Start _ -> { mix with n_start = mix.n_start + 1 }
      | Stop _ -> { mix with n_stop = mix.n_stop + 1 }
      | Migrate _ -> { mix with n_migrate = mix.n_migrate + 1 }
      | Destroy _ -> { mix with n_destroy = mix.n_destroy + 1 })
    { n_spawn = 0; n_start = 0; n_stop = 0; n_migrate = 0; n_destroy = 0 }
    ops

