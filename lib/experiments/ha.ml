type result = {
  session_timeout : float;
  kill_time : float;
  new_leader_time : float;
  first_commit_after : float;
  takeover_seconds : float;
  recovery_seconds : float;
  submitted : int;
  committed : int;
  aborted : int;
  lost : int;
  stats : Tropic.Stats.stats;
  membership : string;
}

(* Historical seed of this experiment's runs; --seed overrides it. *)
let default_seed = 64

let run ?(seed = default_seed) ?(quick = false) ?(session_timeout = 10.)
    ?(rate = 2.) ?kill_at ?duration () =
  let kill_at = Option.value kill_at ~default:(if quick then 20. else 60.) in
  let duration = Option.value duration ~default:(if quick then 60. else 180.) in
  let sim = Des.Sim.create ~seed () in
  let size =
    {
      Tcloud.Setup.small with
      Tcloud.Setup.compute_hosts = 64;
      storage_hosts = 16;
      storage_capacity_mb = 5_000_000;
    }
  in
  let inv = Tcloud.Setup.build size in
  let spec =
    {
      Tropic.Platform.default_spec with
      Tropic.Platform.mode = Tropic.Platform.Logical_only 0.005;
      workers = 4;
      controller_config = Tcloud.Setup.controller_config;
      controller_session_timeout = session_timeout;
    }
  in
  let platform =
    Tropic.Platform.create spec inv.Tcloud.Setup.env
      ~initial_tree:inv.Tcloud.Setup.tree ~devices:inv.Tcloud.Setup.devices sim
  in
  let submitted = ref 0 and committed = ref 0 and aborted = ref 0 in
  let kill_time = ref 0. in
  let new_leader_time = ref Float.nan in
  let first_commit_after = ref Float.nan in
  (* Killer process: waits, then crashes whoever currently leads, then
     records when a different controller takes over. *)
  let killer () =
    Des.Proc.sleep kill_at;
    let leader = Tropic.Platform.await_leader_controller platform in
    let index = Option.get (Tropic.Platform.leader_index platform) in
    kill_time := Des.Proc.now ();
    Tropic.Platform.kill_controller platform index;
    let rec wait_new () =
      match Tropic.Platform.leader_controller platform with
      | Some c when c != leader -> new_leader_time := Des.Proc.now ()
      | Some _ | None ->
        Des.Proc.sleep 0.05;
        wait_new ()
    in
    wait_new ()
  in
  (* Open-loop submission at a constant rate; every transaction is awaited
     so losses are observable. *)
  let host i = Data.Path.to_string (Tcloud.Setup.compute_path i) in
  let storage i = Data.Path.to_string (Tcloud.Setup.storage_path i) in
  let generator () =
    let gap = 1. /. rate in
    let count = int_of_float (duration *. rate) in
    for k = 0 to count - 1 do
      incr submitted;
      let h = k mod size.Tcloud.Setup.compute_hosts in
      let args =
        Tcloud.Procs.spawn_vm_args
          ~vm:(Printf.sprintf "ha%05d" k)
          ~template:"base.img" ~mem_mb:512
          ~storage:(storage (h mod size.Tcloud.Setup.storage_hosts))
          ~host:(host h)
      in
      ignore
        (Des.Proc.spawn ~name:(Printf.sprintf "ha-sub-%d" k) sim (fun () ->
             let id = Tropic.Platform.submit platform ~proc:"spawnVM" ~args in
             match Tropic.Platform.await platform id with
             | Tropic.Txn.Committed ->
               incr committed;
               let t = Des.Proc.now () in
               if
                 t > !kill_time && !kill_time > 0.
                 && Float.is_nan !first_commit_after
               then first_commit_after := t
             | Tropic.Txn.Aborted _ -> incr aborted
             | _ -> ()));
      Des.Proc.sleep gap
    done
  in
  Common.run_scenario platform (fun () ->
      ignore (Des.Proc.spawn ~name:"killer" sim killer);
      generator ());
  {
    session_timeout;
    kill_time = !kill_time;
    new_leader_time = !new_leader_time;
    first_commit_after = !first_commit_after;
    takeover_seconds = !new_leader_time -. !kill_time;
    recovery_seconds = !first_commit_after -. !kill_time;
    submitted = !submitted;
    committed = !committed;
    aborted = !aborted;
    lost = !submitted - !committed - !aborted;
    stats = Tropic.Platform.shard_stats platform 0;
    membership = Common.membership_summary platform;
  }

let print r =
  Common.section "§6.4 High availability: controller fail-over";
  Printf.printf "session timeout (failure detection): %.1f s\n" r.session_timeout;
  Printf.printf "leader killed at t=%.1f s\n" r.kill_time;
  Printf.printf "new leader elected after %.2f s\n" r.takeover_seconds;
  Printf.printf
    "transactions flowing again after %.2f s (paper: within 12.5 s)\n"
    r.recovery_seconds;
  Printf.printf "submitted=%d committed=%d aborted=%d lost=%d (paper: 0 lost)\n"
    r.submitted r.committed r.aborted r.lost;
  Printf.printf "%s\n%s\n%s\n%s\n%!" (Common.sched_summary r.stats)
    (Common.robust_summary r.stats)
    (Common.phase_summary r.stats)
    r.membership
