module Schema = Devices.Schema

type micro = {
  iterations : int;
  spawn_rollback_us : float;
  migrate_rollback_us : float;
}

type e2e = {
  injected : int;
  aborted : int;
  committed : int;
  residue : int;
}

type result = { micro : micro; e2e : e2e }

let host i = Data.Path.to_string (Tcloud.Setup.compute_path i)
let storage i = Data.Path.to_string (Tcloud.Setup.storage_path i)

(* ------------------------------------------------------------------ *)
(* Micro: cost of Logical.rollback on spawn / migrate logs *)

let rollback_us env ~tree ~proc ~args iterations =
  match Tropic.Logical.simulate env ~tree ~proc ~args with
  | Error reason -> failwith reason
  | Ok { Tropic.Logical.new_tree; log; _ } ->
    let (), seconds =
      Common.time_it (fun () ->
          for _ = 1 to iterations do
            match Tropic.Logical.rollback env ~tree:new_tree ~log with
            | Ok _ -> ()
            | Error (_, reason) -> failwith reason
          done)
    in
    seconds /. float_of_int iterations *. 1e6

let micro_run iterations =
  let size =
    { Tcloud.Setup.small with Tcloud.Setup.prepopulated_vms_per_host = 2 }
  in
  let inv = Tcloud.Setup.build size in
  let env = inv.Tcloud.Setup.env in
  let tree = inv.Tcloud.Setup.tree in
  let spawn_rollback_us =
    rollback_us env ~tree ~proc:"spawnVM"
      ~args:
        (Tcloud.Procs.spawn_vm_args ~vm:"rb1" ~template:"base.img" ~mem_mb:1024
           ~storage:(storage 0) ~host:(host 0))
      iterations
  in
  let migrate_rollback_us =
    rollback_us env ~tree ~proc:"migrateVM"
      ~args:
        (Tcloud.Procs.migrate_vm_args ~src:(host 0) ~dst:(host 2)
           ~vm:(Tcloud.Setup.prepop_vm_name ~host:0 ~index:0))
      iterations
  in
  { iterations; spawn_rollback_us; migrate_rollback_us }

(* ------------------------------------------------------------------ *)
(* End to end: inject faults into the last spawn step on a live platform *)

let e2e_run ~seed injections =
  let sim = Des.Sim.create ~seed () in
  let size =
    { Tcloud.Setup.small with Tcloud.Setup.compute_hosts = 8; storage_hosts = 4 }
  in
  let inv = Tcloud.Setup.build ~timing:`Process ~rng:(Des.Sim.rng sim) size in
  let spec =
    {
      Tropic.Platform.default_spec with
      Tropic.Platform.workers = 4;
      controller_config = Tcloud.Setup.controller_config;
      controller_session_timeout = 3.0;
    }
  in
  let platform =
    Tropic.Platform.create spec inv.Tcloud.Setup.env
      ~initial_tree:inv.Tcloud.Setup.tree ~devices:inv.Tcloud.Setup.devices sim
  in
  let aborted = ref 0 and committed = ref 0 in
  Common.run_scenario platform (fun () ->
      for k = 0 to injections - 1 do
        let h = k mod size.Tcloud.Setup.compute_hosts in
        let _, compute = inv.Tcloud.Setup.computes.(h) in
        (* The last step of spawnVM is startVM: fail it once. *)
        Devices.Fault.fail_next
          (Devices.Device.faults (Devices.Compute.device compute))
          ~action:Schema.act_start_vm;
        let args =
          Tcloud.Procs.spawn_vm_args
            ~vm:(Printf.sprintf "inj%04d" k)
            ~template:"base.img" ~mem_mb:512
            ~storage:(storage (h mod size.Tcloud.Setup.storage_hosts))
            ~host:(host h)
        in
        (match Tropic.Platform.run_txn platform ~proc:"spawnVM" ~args with
         | Tropic.Txn.Aborted _ -> incr aborted
         | Tropic.Txn.Committed -> incr committed
         | Tropic.Txn.Failed _ | Tropic.Txn.Initialized | Tropic.Txn.Accepted
         | Tropic.Txn.Deferred | Tropic.Txn.Started ->
           ());
        (* A control transaction without fault injection must commit. *)
        let control_args =
          Tcloud.Procs.spawn_vm_args
            ~vm:(Printf.sprintf "ok%04d" k)
            ~template:"base.img" ~mem_mb:512
            ~storage:(storage (h mod size.Tcloud.Setup.storage_hosts))
            ~host:(host h)
        in
        match Tropic.Platform.run_txn platform ~proc:"spawnVM" ~args:control_args with
        | Tropic.Txn.Committed -> incr committed
        | _ -> ()
      done);
  (* Residue: any injNNNN VM still present on a device. *)
  let residue =
    Array.fold_left
      (fun acc (_, compute) ->
        acc
        + List.length
            (List.filter
               (fun name -> String.length name >= 3 && String.sub name 0 3 = "inj")
               (Devices.Compute.vm_names compute)))
      0 inv.Tcloud.Setup.computes
  in
  { injected = injections; aborted = !aborted; committed = !committed; residue }

let default_seed = 63

let run ?(seed = default_seed) ?(quick = false) () =
  let iterations, injections = if quick then (2_000, 8) else (20_000, 20) in
  { micro = micro_run iterations; e2e = e2e_run ~seed injections }

let print r =
  Common.section "§6.3 Robustness: rollback under injected errors";
  Printf.printf
    "logical rollback: spawn %.2f us, migrate %.2f us per txn (paper: < 9 ms)\n"
    r.micro.spawn_rollback_us r.micro.migrate_rollback_us;
  Printf.printf
    "end-to-end: %d faults injected at the last spawn step -> %d clean aborts, %d control commits, %d leftover VMs on devices\n%!"
    r.e2e.injected r.e2e.aborted r.e2e.committed r.e2e.residue
