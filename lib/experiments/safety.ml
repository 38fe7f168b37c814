type result = {
  iterations : int;
  with_constraints_us : float;
  without_constraints_us : float;
  overhead_us : float;
  migrate_block_us : float;
  migrate_rejected : bool;
}

(* An environment identical to TCloud's but with no constraints registered:
   the ablation baseline. *)
let env_without_constraints () =
  let env = Tropic.Dsl.create_env () in
  Tcloud.Actions.register_all env;
  Tcloud.Procs.register_all env;
  env

let deployment =
  {
    Tcloud.Setup.small with
    Tcloud.Setup.compute_hosts = 100;
    storage_hosts = 25;
    prepopulated_vms_per_host = 4;
  }

let mean_simulate_us env tree calls iterations =
  let n_calls = Array.length calls in
  let (), seconds =
    Common.time_it (fun () ->
        for i = 0 to iterations - 1 do
          let proc, args = calls.(i mod n_calls) in
          ignore (Tropic.Logical.simulate env ~tree ~proc ~args)
        done)
  in
  seconds /. float_of_int iterations *. 1e6

let run ?(quick = false) () =
  let iterations = if quick then 2_000 else 20_000 in
  let inv = Tcloud.Setup.build deployment in
  let tree = inv.Tcloud.Setup.tree in
  let bare_env = env_without_constraints () in
  (* The hosting mix as simulation inputs, against the prepopulated tree. *)
  let host i = Data.Path.to_string (Tcloud.Setup.compute_path i) in
  let storage i = Data.Path.to_string (Tcloud.Setup.storage_path i) in
  let calls =
    Array.init 100 (fun k ->
        let h = k mod deployment.Tcloud.Setup.compute_hosts in
        let vm = Tcloud.Setup.prepop_vm_name ~host:h ~index:(k mod 4) in
        match k mod 4 with
        | 0 ->
          ( "spawnVM",
            Tcloud.Procs.spawn_vm_args
              ~vm:(Printf.sprintf "new%04d" k)
              ~template:"base.img" ~mem_mb:1024
              ~storage:(storage (h mod deployment.Tcloud.Setup.storage_hosts))
              ~host:(host h) )
        | 1 -> ("startVM", Tcloud.Procs.start_vm_args ~host:(host h) ~vm)
        | 2 ->
          (* Same-hypervisor migration (hosts h and h+2 share a type). *)
          ( "migrateVM",
            Tcloud.Procs.migrate_vm_args ~src:(host h)
              ~dst:(host ((h + 2) mod deployment.Tcloud.Setup.compute_hosts))
              ~vm )
        | _ ->
          ( "destroyVM",
            Tcloud.Procs.destroy_vm_args ~host:(host h)
              ~storage:(storage (h mod deployment.Tcloud.Setup.storage_hosts))
              ~vm ))
  in
  let with_constraints_us =
    mean_simulate_us inv.Tcloud.Setup.env tree calls iterations
  in
  let without_constraints_us = mean_simulate_us bare_env tree calls iterations in
  (* Cross-hypervisor migration: rejected by the VM-type rule. *)
  let blocked_migrations =
    Array.init 16 (fun k ->
        let h = 2 * k in
        let vm = Tcloud.Setup.prepop_vm_name ~host:h ~index:0 in
        ( "migrateVM",
          Tcloud.Procs.migrate_vm_args ~src:(host h) ~dst:(host (h + 1)) ~vm ))
  in
  let migrate_block_us =
    mean_simulate_us inv.Tcloud.Setup.env tree blocked_migrations
      (iterations / 4)
  in
  let migrate_rejected =
    Array.for_all
      (fun (proc, args) ->
        Result.is_error
          (Tropic.Logical.simulate inv.Tcloud.Setup.env ~tree ~proc ~args))
      blocked_migrations
  in
  {
    iterations;
    with_constraints_us;
    without_constraints_us;
    overhead_us = with_constraints_us -. without_constraints_us;
    migrate_block_us;
    migrate_rejected;
  }

let print r =
  Common.section "§6.2 Safety: constraint-checking overhead (logical layer)";
  Printf.printf
    "logical simulation per txn: %.2f us with constraints, %.2f us without\n"
    r.with_constraints_us r.without_constraints_us;
  Printf.printf "constraint-checking overhead: %.2f us per txn (paper: < 10 ms)\n"
    r.overhead_us;
  Printf.printf "illegal migration rejected in %.2f us (before any device op)\n%!"
    r.migrate_block_us
