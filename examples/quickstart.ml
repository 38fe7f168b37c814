(* Quickstart: bring up a complete TROPIC deployment (coordination
   ensemble, three controllers, workers, simulated devices), spawn a VM
   through the transactional API, and look at both layers.

   Run with:  dune exec examples/quickstart.exe *)

let printf = Printf.printf

let () =
  (* Everything runs inside one deterministic simulation. *)
  let sim = Des.Sim.create ~seed:1 () in

  (* A small TCloud: 4 compute hosts (xen/kvm), 2 storage hosts, 1 switch.
     [`Process] makes device operations take realistic simulated time. *)
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
         let host = Data.Path.to_string (Tcloud.Setup.compute_path 0) in
         let storage = Data.Path.to_string (Tcloud.Setup.storage_path 0) in

         printf "Spawning VM 'web1' (1 GB) on %s ...\n" host;
         let t0 = Des.Proc.now () in
         let state =
           Tropic.Platform.run_txn platform ~proc:"spawnVM"
             ~args:
               (Tcloud.Procs.spawn_vm_args ~vm:"web1" ~template:"base.img"
                  ~mem_mb:1024 ~storage ~host)
         in
         printf "  -> %s after %.1f simulated seconds\n"
           (Tropic.Txn.state_to_string state)
           (Des.Proc.now () -. t0);

         (* The logical layer: TROPIC's view of the world. *)
         let host_path = Tcloud.Setup.compute_path 0 in
         (match
            Data.Tree.subtree (Tropic.Platform.logical_tree platform) host_path
          with
          | Ok node ->
            printf "\nLogical view of %s:\n" host;
            Format.printf "%a@." Data.Tree.pp node
          | Error e -> printf "error: %s\n" (Data.Tree.error_to_string e));

         (* The physical layer: what the device actually holds. *)
         let _, compute = inv.Tcloud.Setup.computes.(0) in
         printf "Physical view: VMs on the hypervisor = [%s], state of web1 = %s\n"
           (String.concat "; " (Devices.Compute.vm_names compute))
           (match Devices.Compute.vm_state compute "web1" with
            | Some `Running -> "running"
            | Some `Stopped -> "stopped"
            | None -> "absent");

         (* A transaction that violates a constraint aborts before touching
            any device: this host has 8 GB and web1 already uses 1 GB. *)
         printf "\nTrying to spawn an 8 GB VM on the same host ...\n";
         (match
            Tropic.Platform.run_txn platform ~proc:"spawnVM"
              ~args:
                (Tcloud.Procs.spawn_vm_args ~vm:"toobig" ~template:"base.img"
                   ~mem_mb:8192 ~storage ~host)
          with
          | Tropic.Txn.Aborted reason -> printf "  -> aborted: %s\n" reason
          | other ->
            printf "  -> unexpected: %s\n" (Tropic.Txn.state_to_string other));

         (* Clean up transactionally. *)
         printf "\nDestroying web1 ...\n";
         let state =
           Tropic.Platform.run_txn platform ~proc:"destroyVM"
             ~args:(Tcloud.Procs.destroy_vm_args ~host ~storage ~vm:"web1")
         in
         printf "  -> %s; VMs on hypervisor now = [%s]\n"
           (Tropic.Txn.state_to_string state)
           (String.concat "; " (Devices.Compute.vm_names compute))));
  match Des.Sim.failures sim with
  | [] -> printf "\nquickstart finished cleanly.\n"
  | (who, exn) :: _ ->
    printf "process %s crashed: %s\n" who (Printexc.to_string exn);
    exit 1
