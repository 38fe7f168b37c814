module Schema = Devices.Schema

type safety_result = {
  with_constraints_overcommitted_hosts : int;
  with_constraints_device_ops : int;
  without_constraints_overcommitted_hosts : int;
  without_constraints_device_ops : int;
}

type checkpoint_result = {
  txns_before_crash : int;
  recovery_s : float;
}

type result = {
  safety : safety_result;
  checkpointing : checkpoint_result;
}

let host i = Data.Path.to_string (Tcloud.Setup.compute_path i)
let storage i = Data.Path.to_string (Tcloud.Setup.storage_path i)

let spawn_args ~vm ~h ~storage_hosts =
  Tcloud.Procs.spawn_vm_args ~vm ~template:"base.img" ~mem_mb:1024
    ~storage:(storage (h mod storage_hosts))
    ~host:(host h)

(* ------------------------------------------------------------------ *)
(* 2. Logical-first safety vs device-only execution *)

let total_device_ops inv =
  List.fold_left
    (fun acc device -> acc + Devices.Device.ops device)
    0 inv.Tcloud.Setup.devices

let overcommitted_hosts inv =
  Array.fold_left
    (fun acc (_, compute) ->
      if Devices.Compute.used_mem_mb compute > Devices.Compute.mem_mb compute
      then acc + 1
      else acc)
    0 inv.Tcloud.Setup.computes

let safety_run ~seed ~with_constraints =
  let sim = Des.Sim.create ~seed () in
  let size =
    { Tcloud.Setup.small with Tcloud.Setup.storage_capacity_mb = 5_000_000 }
  in
  let inv = Tcloud.Setup.build size in
  let env =
    if with_constraints then inv.Tcloud.Setup.env
    else Tcloud.Setup.env_without_constraints ()
  in
  let platform =
    Tropic.Platform.create
      { Tropic.Platform.default_spec with Tropic.Platform.workers = 4 }
      env ~initial_tree:inv.Tcloud.Setup.tree
      ~devices:inv.Tcloud.Setup.devices sim
  in
  Common.run_scenario platform (fun () ->
      (* Twelve 1 GB spawns against one 8 GB host. *)
      let ids =
        List.init 12 (fun k ->
            Tropic.Platform.submit platform ~proc:"spawnVM"
              ~args:(spawn_args ~vm:(Printf.sprintf "oc%02d" k) ~h:0 ~storage_hosts:2))
      in
      List.iter (fun id -> ignore (Tropic.Platform.await platform id)) ids);
  (overcommitted_hosts inv, total_device_ops inv)

let safety_ablation ~seed () =
  let with_oc, with_ops = safety_run ~seed ~with_constraints:true in
  let without_oc, without_ops = safety_run ~seed ~with_constraints:false in
  {
    with_constraints_overcommitted_hosts = with_oc;
    with_constraints_device_ops = with_ops;
    without_constraints_overcommitted_hosts = without_oc;
    without_constraints_device_ops = without_ops;
  }

(* ------------------------------------------------------------------ *)
(* 3. Recovery after a run: checkpoints fold the history in *)

let recovery_run ~seed ~txns =
  let sim = Des.Sim.create ~seed () in
  let size =
    {
      Tcloud.Setup.small with
      Tcloud.Setup.compute_hosts = 64;
      storage_hosts = 16;
      storage_capacity_mb = 50_000_000;
    }
  in
  let inv = Tcloud.Setup.build size in
  let spec =
    {
      Tropic.Platform.default_spec with
      Tropic.Platform.mode = Tropic.Platform.Logical_only 0.002;
      workers = 4;
      controller_session_timeout = 2.0;
    }
  in
  let platform =
    Tropic.Platform.create spec inv.Tcloud.Setup.env
      ~initial_tree:inv.Tcloud.Setup.tree ~devices:inv.Tcloud.Setup.devices sim
  in
  let recovery = ref Float.nan in
  Common.run_scenario platform (fun () ->
      for k = 0 to txns - 1 do
        let h = k mod size.Tcloud.Setup.compute_hosts in
        ignore
          (Tropic.Platform.run_txn platform ~proc:"spawnVM"
             ~args:
               (spawn_args ~vm:(Printf.sprintf "ck%04d" k) ~h ~storage_hosts:16))
      done;
      ignore (Tropic.Platform.await_leader_controller platform);
      let index = Option.get (Tropic.Platform.leader_index platform) in
      let t_kill = Des.Proc.now () in
      Tropic.Platform.kill_controller platform index;
      (* Probe: the first transaction to commit marks recovery done. *)
      let probe =
        Tropic.Platform.run_txn platform ~proc:"spawnVM"
          ~args:(spawn_args ~vm:"probe" ~h:0 ~storage_hosts:16)
      in
      (match probe with
       | Tropic.Txn.Committed -> ()
       | other ->
         failwith ("probe not committed: " ^ Tropic.Txn.state_to_string other));
      recovery := Des.Proc.now () -. t_kill);
  !recovery

let checkpoint_ablation ~seed () =
  let txns = 400 in
  { txns_before_crash = txns; recovery_s = recovery_run ~seed ~txns }

let default_seed = 71

(* The sub-experiments historically ran on seeds 72/73 (71 was the
   retired scheduling ablation); keep that spacing relative to whatever
   base seed the caller picks. *)
let run ?(seed = default_seed) () =
  {
    safety = safety_ablation ~seed:(seed + 1) ();
    checkpointing = checkpoint_ablation ~seed:(seed + 2) ();
  }

let print r =
  Common.section "Ablation 2: logical-first safety vs device-only execution";
  Printf.printf
    "with constraints:    %d overcommitted hosts, %d device ops\nwithout constraints: %d overcommitted hosts, %d device ops\n"
    r.safety.with_constraints_overcommitted_hosts
    r.safety.with_constraints_device_ops
    r.safety.without_constraints_overcommitted_hosts
    r.safety.without_constraints_device_ops;
  Common.section "Ablation 3: recovery after a checkpointed run";
  Printf.printf "%d txns before crash: recovery %.2f s\n%!"
    r.checkpointing.txns_before_crash r.checkpointing.recovery_s
