(* Reconciliation: keeping the logical and physical layers consistent in a
   volatile cloud (paper §4).

   Three kinds of volatility, three remedies:
   1. A compute host power-cycles — every VM is found stopped.  [repair]
      replays the logical truth onto the device (startVM for each).
   2. An operator deletes a VLAN out-of-band.  [reload] makes the logical
      layer adopt the physical truth.
   3. An undo fails mid-rollback, quarantining the host; transactions that
      touch it abort until a reload reconciles the layers.

   Run with:  dune exec examples/reconciliation.exe *)

let printf = Printf.printf

module Schema = Devices.Schema

let host i = Data.Path.to_string (Tcloud.Setup.compute_path i)
let storage i = Data.Path.to_string (Tcloud.Setup.storage_path i)

let () =
  let sim = Des.Sim.create ~seed:4 () in
  let inv =
    Tcloud.Setup.build ~timing:`Process ~rng:(Des.Sim.rng sim)
      Tcloud.Setup.small
  in
  let platform =
    Tropic.Platform.create
      {
        Tropic.Platform.default_spec with
        Tropic.Platform.controller_config = Tcloud.Setup.controller_config;
      }
      inv.Tcloud.Setup.env
      ~initial_tree:inv.Tcloud.Setup.tree ~devices:inv.Tcloud.Setup.devices sim
  in
  ignore
    (Tropic.Platform.run platform (fun () ->
         let _, compute0 = inv.Tcloud.Setup.computes.(0) in
         let spawn vm =
           match
             Tropic.Platform.run_txn platform ~proc:"spawnVM"
               ~args:
                 (Tcloud.Procs.spawn_vm_args ~vm ~template:"base.img"
                    ~mem_mb:1024 ~storage:(storage 0) ~host:(host 0))
           with
           | Tropic.Txn.Committed -> ()
           | other ->
             failwith ("spawn failed: " ^ Tropic.Txn.state_to_string other)
         in
         spawn "app1";
         spawn "app2";

         (* --- 1. Power failure, then repair (logical -> physical) --- *)
         printf "Scene 1: host0 power-cycles; both VMs stop physically.\n";
         Devices.Compute.power_cycle compute0;
         let show_phys () =
           printf "  physical: app1=%s app2=%s\n"
             (match Devices.Compute.vm_state compute0 "app1" with
              | Some `Running -> "running" | Some `Stopped -> "stopped" | None -> "absent")
             (match Devices.Compute.vm_state compute0 "app2" with
              | Some `Running -> "running" | Some `Stopped -> "stopped" | None -> "absent")
         in
         show_phys ();
         printf "  repair(host0): replays the logical state onto the device\n";
         Tropic.Platform.repair platform (Tcloud.Setup.compute_path 0);
         Des.Proc.sleep 15.;
         show_phys ();

         (* --- 2. Out-of-band change, then reload (physical -> logical) --- *)
         printf "\nScene 2: operator creates VLAN 7, then deletes it via the CLI.\n";
         let switch = Data.Path.to_string (Tcloud.Setup.switch_path 0) in
         (match
            Tropic.Platform.run_txn platform ~proc:"createVlan"
              ~args:(Tcloud.Procs.create_vlan_args ~switch ~vlan:7 ~name:"tenantA")
          with
          | Tropic.Txn.Committed -> ()
          | other -> failwith (Tropic.Txn.state_to_string other));
         let _, switch0 = inv.Tcloud.Setup.switches.(0) in
         Devices.Network.force_remove_vlan switch0 7;
         let logical_vlans () =
           match
             Data.Tree.child_names
               (Tropic.Platform.logical_tree platform)
               (Tcloud.Setup.switch_path 0)
           with
           | Some names -> String.concat "; " names
           | None -> "?"
         in
         printf "  logical before reload: [%s]\n" (logical_vlans ());
         Tropic.Platform.reload platform (Tcloud.Setup.switch_path 0);
         Des.Proc.sleep 5.;
         printf "  logical after reload:  [%s]\n" (logical_vlans ());

         (* --- 3. Failed undo -> quarantine -> reload --- *)
         printf "\nScene 3: an undo fails; host0 is quarantined until reconciled.\n";
         let faults = Devices.Device.faults (Devices.Compute.device compute0) in
         Devices.Fault.fail_next faults ~action:Schema.act_start_vm;
         Devices.Fault.fail_next faults ~action:Schema.act_remove_vm;
         (match
            Tropic.Platform.run_txn platform ~proc:"spawnVM"
              ~args:
                (Tcloud.Procs.spawn_vm_args ~vm:"ghost" ~template:"base.img"
                   ~mem_mb:1024 ~storage:(storage 0) ~host:(host 0))
          with
          | Tropic.Txn.Failed reason -> printf "  txn failed: %s\n" reason
          | other -> printf "  %s\n" (Tropic.Txn.state_to_string other));
         let leader = Tropic.Platform.await_leader_controller platform in
         printf "  quarantined paths: [%s]\n"
           (String.concat "; "
              (List.map Data.Path.to_string (Tropic.Controller.quarantined leader)));
         (match
            Tropic.Platform.run_txn platform ~proc:"spawnVM"
              ~args:
                (Tcloud.Procs.spawn_vm_args ~vm:"probe-q" ~template:"base.img"
                   ~mem_mb:512 ~storage:(storage 1) ~host:(host 0))
          with
          | Tropic.Txn.Aborted reason -> printf "  txn on host0 refused: %s\n" reason
          | other -> printf "  %s\n" (Tropic.Txn.state_to_string other));
         printf "  reload(host0) + reload(storage0) adopt the physical truth\n";
         Tropic.Platform.reload platform (Tcloud.Setup.compute_path 0);
         Tropic.Platform.reload platform (Tcloud.Setup.storage_path 0);
         Des.Proc.sleep 5.;
         printf "  quarantined paths now: [%s]\n"
           (String.concat "; "
              (List.map Data.Path.to_string (Tropic.Controller.quarantined leader)));
         match
           Tropic.Platform.run_txn platform ~proc:"spawnVM"
             ~args:
               (Tcloud.Procs.spawn_vm_args ~vm:"app3" ~template:"base.img"
                  ~mem_mb:1024 ~storage:(storage 0) ~host:(host 0))
         with
         | Tropic.Txn.Committed -> printf "  host0 serves transactions again.\n"
         | other -> printf "  %s\n" (Tropic.Txn.state_to_string other)));
  match Des.Sim.failures sim with
  | [] -> printf "\nreconciliation finished cleanly.\n"
  | (who, exn) :: _ ->
    printf "process %s crashed: %s\n" who (Printexc.to_string exn);
    exit 1
