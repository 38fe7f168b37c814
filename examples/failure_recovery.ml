(* Failure and recovery: the robustness and high-availability story.

   Three scenes:
   1. A device fails during the last step of a spawn: the transaction
      aborts and the undo chain leaves no trace on any device.
   2. A stalled transaction is TERM'ed by the operator mid-flight.
   3. The lead controller crashes with transactions in flight: a follower
      takes over (after the session timeout) and nothing is lost.

   Run with:  dune exec examples/failure_recovery.exe *)

let printf = Printf.printf

module Schema = Devices.Schema

let host i = Data.Path.to_string (Tcloud.Setup.compute_path i)
let storage i = Data.Path.to_string (Tcloud.Setup.storage_path i)

let () =
  let sim = Des.Sim.create ~seed:3 () in
  let inv =
    Tcloud.Setup.build ~timing:`Process ~rng:(Des.Sim.rng sim)
      Tcloud.Setup.small
  in
  let platform =
    Tropic.Platform.create
      {
        Tropic.Platform.default_spec with
        Tropic.Platform.workers = 2;
        controller_config = Tcloud.Setup.controller_config;
        controller_session_timeout = 5.0;
      }
      inv.Tcloud.Setup.env ~initial_tree:inv.Tcloud.Setup.tree
      ~devices:inv.Tcloud.Setup.devices sim
  in
  ignore
    (Tropic.Platform.run platform (fun () ->
         let _, compute0 = inv.Tcloud.Setup.computes.(0) in

         (* --- Scene 1: device fault at the last step --- *)
         printf "Scene 1: startVM will fail on host0's hypervisor.\n";
         Devices.Fault.fail_next
           (Devices.Device.faults (Devices.Compute.device compute0))
           ~action:Schema.act_start_vm;
         (match
            Tropic.Platform.run_txn platform ~proc:"spawnVM"
              ~args:
                (Tcloud.Procs.spawn_vm_args ~vm:"doomed" ~template:"base.img"
                   ~mem_mb:1024 ~storage:(storage 0) ~host:(host 0))
          with
          | Tropic.Txn.Aborted reason -> printf "  aborted: %s\n" reason
          | other -> printf "  unexpected %s\n" (Tropic.Txn.state_to_string other));
         let _, storage0 = inv.Tcloud.Setup.storages.(0) in
         printf
           "  residue check: VMs on host0 = [%s]; cloned images on storage0 = [%s]\n"
           (String.concat "; " (Devices.Compute.vm_names compute0))
           (String.concat "; "
              (List.filter
                 (fun n -> not (Devices.Storage.is_template storage0 n))
                 (Devices.Storage.image_names storage0)));

         (* --- Scene 2: TERM a transaction mid-flight --- *)
         printf "\nScene 2: TERM a spawn while the physical layer works.\n";
         let txn =
           Tropic.Platform.submit platform ~proc:"spawnVM"
             ~args:
               (Tcloud.Procs.spawn_vm_args ~vm:"victim" ~template:"base.img"
                  ~mem_mb:1024 ~storage:(storage 0) ~host:(host 0))
         in
         (* cloneImage alone takes ~4 s; signal at the 5 s mark. *)
         Des.Proc.sleep 5.;
         Tropic.Platform.signal platform txn Tropic.Proto.Term;
         (match Tropic.Platform.await platform txn with
          | Tropic.Txn.Aborted reason -> printf "  aborted: %s\n" reason
          | other -> printf "  %s\n" (Tropic.Txn.state_to_string other));
         printf "  residue check: VMs on host0 = [%s]\n"
           (String.concat "; " (Devices.Compute.vm_names compute0));

         (* --- Scene 3: controller crash with work in flight --- *)
         printf "\nScene 3: crash the lead controller under load.\n";
         let ids =
           List.init 4 (fun k ->
               Tropic.Platform.submit platform ~proc:"spawnVM"
                 ~args:
                   (Tcloud.Procs.spawn_vm_args
                      ~vm:(Printf.sprintf "ha%d" k)
                      ~template:"base.img" ~mem_mb:1024
                      ~storage:(storage (k mod 2))
                      ~host:(host k)))
         in
         let leader = Tropic.Platform.await_leader_controller platform in
         printf "  leader is %s; killing it now.\n" (Tropic.Controller.name leader);
         let index = Option.get (Tropic.Platform.leader_index platform) in
         let t0 = Des.Proc.now () in
         Tropic.Platform.kill_controller platform index;
         let new_leader =
           let rec wait () =
             match Tropic.Platform.leader_controller platform with
             | Some c when c != leader -> c
             | Some _ | None ->
               Des.Proc.sleep 0.1;
               wait ()
           in
           wait ()
         in
         printf "  %s took over %.1f s after the crash.\n"
           (Tropic.Controller.name new_leader)
           (Des.Proc.now () -. t0);
         List.iteri
           (fun k id ->
             let state = Tropic.Platform.await platform id in
             printf "  txn ha%d -> %s\n" k (Tropic.Txn.state_to_string state))
           ids;
         printf "  no transaction lost.\n"));
  match Des.Sim.failures sim with
  | [] -> printf "\nfailure_recovery finished cleanly.\n"
  | (who, exn) :: _ ->
    printf "process %s crashed: %s\n" who (Printexc.to_string exn);
    exit 1
