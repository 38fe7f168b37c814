(* VM life cycle and concurrency: the hosting-provider scenario.

   Demonstrates the full operation mix (spawn / stop / start / migrate /
   destroy), the hypervisor-compatibility service rule, and what happens
   when concurrent transactions contend for the same host: lock-based
   deferral, and constraint-based aborts when capacity runs out.

   Run with:  dune exec examples/vm_lifecycle.exe *)

let printf = Printf.printf

let host i = Data.Path.to_string (Tcloud.Setup.compute_path i)
let storage i = Data.Path.to_string (Tcloud.Setup.storage_path i)

let () =
  let sim = Des.Sim.create ~seed:2 () in
  let inv =
    Tcloud.Setup.build ~timing:`Process ~rng:(Des.Sim.rng sim)
      { Tcloud.Setup.small with Tcloud.Setup.compute_hosts = 6 }
  in
  let platform =
    Tropic.Platform.create
      {
        Tropic.Platform.default_spec with
        Tropic.Platform.workers = 3;
        controller_config = Tcloud.Setup.controller_config;
      }
      inv.Tcloud.Setup.env ~initial_tree:inv.Tcloud.Setup.tree
      ~devices:inv.Tcloud.Setup.devices sim
  in
  let run what proc args =
    let state = Tropic.Platform.run_txn platform ~proc ~args in
    printf "%-45s -> %s\n" what (Tropic.Txn.state_to_string state);
    state
  in
  ignore
    (Tropic.Platform.run platform (fun () ->
         (* hosts 0,2,4 run xen; hosts 1,3,5 run kvm. *)
         ignore
           (run "spawn db1 on host0 (xen)" "spawnVM"
              (Tcloud.Procs.spawn_vm_args ~vm:"db1" ~template:"base.img"
                 ~mem_mb:2048 ~storage:(storage 0) ~host:(host 0)));
         ignore
           (run "stop db1" "stopVM"
              (Tcloud.Procs.stop_vm_args ~host:(host 0) ~vm:"db1"));
         ignore
           (run "start db1 again" "startVM"
              (Tcloud.Procs.start_vm_args ~host:(host 0) ~vm:"db1"));

         (* The §6.2 VM-type rule: xen -> kvm migration is refused. *)
         ignore
           (run "migrate db1 host0(xen) -> host1(kvm)" "migrateVM"
              (Tcloud.Procs.migrate_vm_args ~src:(host 0) ~dst:(host 1)
                 ~vm:"db1"));
         (* Same hypervisor type works (host2 is xen). *)
         ignore
           (run "migrate db1 host0(xen) -> host2(xen)" "migrateVM"
              (Tcloud.Procs.migrate_vm_args ~src:(host 0) ~dst:(host 2)
                 ~vm:"db1"));

         (* Concurrency: ten 2 GB spawns race for host4 (8 GB capacity).
            Locks serialize them; the memory constraint admits exactly
            four minus what's already there. *)
         printf "\nRacing 10 x 2 GB spawns against host4 (8 GB):\n";
         let ids =
           List.init 10 (fun k ->
               Tropic.Platform.submit platform ~proc:"spawnVM"
                 ~args:
                   (Tcloud.Procs.spawn_vm_args
                      ~vm:(Printf.sprintf "race%02d" k)
                      ~template:"base.img" ~mem_mb:2048 ~storage:(storage 0)
                      ~host:(host 4)))
         in
         let committed, aborted =
           List.fold_left
             (fun (ok, no) id ->
               match Tropic.Platform.await platform id with
               | Tropic.Txn.Committed -> (ok + 1, no)
               | _ -> (ok, no + 1))
             (0, 0) ids
         in
         printf "  committed=%d aborted=%d (capacity admits exactly 4)\n"
           committed aborted;
         let leader = Tropic.Platform.await_leader_controller platform in
         let stats = Tropic.Controller.stats leader in
         printf "  controller saw %d lock-conflict deferrals, %d aborts\n"
           stats.Tropic.Controller.deferrals stats.Tropic.Controller.aborted;

         (* Tear down one racer. *)
         ignore
           (run "\ndestroy race00" "destroyVM"
              (Tcloud.Procs.destroy_vm_args ~host:(host 4)
                 ~storage:(storage 0) ~vm:"race00"))));
  match Des.Sim.failures sim with
  | [] -> printf "\nvm_lifecycle finished cleanly.\n"
  | (who, exn) :: _ ->
    printf "process %s crashed: %s\n" who (Printexc.to_string exn);
    exit 1
