(* The three benchmark workloads.  Each builds its deployment and every
   input from the seed, reaches the platform only through submissions, and
   checks its own outputs. *)

module Setup = Tcloud.Setup
module Procs = Tcloud.Procs
module Platform = Tropic.Platform

type t = {
  name : string;
  slo_s : float;  (* latency limit of slo_met_share *)
  deploy : seed:int -> traced:bool -> Harness.deployment;
  drive : seed:int -> Harness.ctx -> unit;  (* body of the driver process *)
  check : seed:int -> Harness.rep -> string list;  (* failed output checks *)
}

let host h = Data.Path.to_string (Setup.compute_path h)

(* The hosts among [0, hosts) whose logical subtree holds [vm], with its
   state. *)
let placements tree ~hosts vm =
  List.filter_map
    (fun h ->
      match
        Data.Tree.get_attr tree
          (Data.Path.child (Setup.compute_path h) vm)
          Devices.Schema.attr_state
      with
      | Some (Data.Value.Str state) -> Some (h, state)
      | Some _ | None -> None)
    (List.init hosts Fun.id)

let misplaced vm ~expected ~found =
  if found = expected then []
  else [ Printf.sprintf "VM %s ends in the wrong place or state" vm ]

(* Every device equals its logical subtree and nothing is quarantined. *)
let layer_problems platform (inv : Setup.t) =
  match Platform.leader_controller platform with
  | None -> [ "no leader at the end of the run" ]
  | Some leader ->
    let tree = Tropic.Controller.tree leader in
    List.map
      (fun p -> "quarantined: " ^ Data.Path.to_string p)
      (Tropic.Controller.quarantined leader)
    @ List.filter_map
        (fun device ->
          let root = Devices.Device.root device in
          match Data.Tree.subtree tree root with
          | Ok node when Data.Tree.equal node (Devices.Device.export device) ->
            None
          | Ok _ | Error _ ->
            Some ("device differs from its logical subtree: "
                  ^ Data.Path.to_string root))
        inv.Setup.devices

(* Closed loop with zero think time: each of 16 sessions toggles its own
   VM on its own host.  No lock conflicts, a tiny tree and stubbed replay
   leave the disk-backed coordination log (5 ms per group-commit append,
   8 persist sessions) as the only ceiling. *)
let commit_path =
  let sessions = 16 and toggles = 64 in
  let size =
    { Setup.small with Setup.compute_hosts = sessions; prepopulated_vms_per_host = 1 }
  in
  let spec =
    {
      Platform.default_spec with
      Platform.controllers = 1;
      workers = 4;
      mode = Platform.Logical_only 0.002;
      coord_config =
        {
          Coord.Types.default_config with
          Coord.Types.group_commit = true;
          op_service_time = 0.005;
          group_timeout = 0.001;
        };
      controller_config = Setup.controller_config;
      submit_clients = sessions;
      persist_clients = 8;
    }
  in
  let vm h = Setup.prepop_vm_name ~host:h ~index:0 in
  let session ctx h () =
    let host = host h and vm = vm h in
    for _ = 1 to toggles do
      Harness.request ctx ~proc:"startVM" ~args:(Procs.start_vm_args ~host ~vm);
      Harness.request ctx ~proc:"stopVM" ~args:(Procs.stop_vm_args ~host ~vm)
    done
  in
  let check ~seed:_ r =
    let tree = Platform.logical_tree (Harness.platform r) in
    List.concat_map
      (fun h ->
        misplaced (vm h)
          ~expected:[ (h, Devices.Schema.state_stopped) ]
          ~found:(placements tree ~hosts:sessions (vm h)))
      (List.init sessions Fun.id)
  in
  {
    name = "commit-path";
    slo_s = 1.0;
    deploy =
      (fun ~seed ~traced ->
        Harness.deploy ~seed ~timing:`Instant ~traced size spec);
    drive =
      (fun ~seed:_ ctx ->
        Harness.run_sessions ctx (List.init sessions (session ctx)));
    check;
  }

(* Open loop: the synthetic EC2 launch trace (Fig. 3) over the 300 s
   around its 0.8 h peak, scaled x3, spawning on random hosts of a
   4 000-host paper-scale tree under the Fig. 4/5 platform.  The burst
   crosses the controller's ~27 txn/s knee, so queueing sets the tail.
   The arrival trace is the paper's own; the seed places the VMs, and no
   host is given more VMs than its memory holds, so no spawn aborts. *)
let ec2_burst =
  let hosts = 4_000 and multiplier = 3 and half_window = 150 in
  let mem_mb = 1024 in
  let size =
    Experiments.Perf.deployment_size
      { Experiments.Perf.default_config with Experiments.Perf.hosts = hosts }
  in
  let slots = size.Setup.host_mem_mb / mem_mb in
  let arrivals = Workload.Ec2.scale (Workload.Ec2.generate ()) multiplier in
  let first_second = Workload.Ec2.peak_second - half_window in
  let drive ~seed ctx =
    let sim = ctx.Harness.d.Harness.sim in
    let rng = Random.State.make [| seed |] in
    let load = Array.make hosts 0 in
    let rec place () =
      let h = Random.State.int rng hosts in
      if load.(h) < slots then begin
        load.(h) <- load.(h) + 1;
        h
      end
      else place ()
    in
    let t0 = Des.Proc.now () in
    let requests = ref [] and count = ref 0 in
    for second = 0 to (2 * half_window) - 1 do
      let launches = arrivals.(first_second + second) in
      for k = 0 to launches - 1 do
        let due =
          t0 +. float_of_int second
          +. (float_of_int k /. float_of_int launches)
        in
        let now = Des.Proc.now () in
        if due > now then Des.Proc.sleep (due -. now);
        ctx.Harness.lateness <-
          Float.max ctx.Harness.lateness (Des.Proc.now () -. due);
        let h = place () in
        incr count;
        let vm = Printf.sprintf "ec2-%07d" !count in
        let storage =
          Data.Path.to_string (Setup.storage_path (h mod size.Setup.storage_hosts))
        in
        let args =
          Procs.spawn_vm_args ~vm ~template:"base.img" ~mem_mb ~storage
            ~host:(host h)
        in
        let s = Harness.sample ~proc:"spawnVM" ~args ~origin:due in
        requests :=
          Des.Proc.spawn ~name:vm sim (fun () -> Harness.execute ctx s)
          :: !requests
      done
    done;
    List.iter (fun p -> ignore (Des.Proc.await p)) !requests
  in
  let spawned (s : Harness.sample) =
    match s.Harness.args with
    | [ Data.Value.Str vm; _; _; _; Data.Value.Str host ] ->
      Data.Path.child (Data.Path.v host) vm
    | _ -> invalid_arg "not a spawnVM request"
  in
  let check ~seed:_ r =
    let tree = Platform.logical_tree (Harness.platform r) in
    let missing =
      List.filter
        (fun s -> Harness.committed s && not (Data.Tree.mem tree (spawned s)))
        r.Harness.samples
    in
    if missing = [] then []
    else
      [ Printf.sprintf "%d committed spawns are missing from the final tree"
          (List.length missing) ]
  in
  {
    name = "ec2-burst";
    slo_s = 1.0;
    deploy =
      (fun ~seed ~traced ->
        Harness.deploy ~seed ~timing:`Instant ~traced size
          Experiments.Perf.platform_spec);
    drive;
    check;
  }

(* Closed loop in Full mode: 16 sessions each own one VM on 8 device-timed
   hosts and cycle it through spawn, start/stop, migrations within its
   hypervisor group and destroy (4 of every 10 requests migrate).  Two
   VMs per host contend for host locks, so Mglock, the scheduler, devices
   and workers do real work; shard 0's leader is killed once, mid-run,
   with started and blocked txns in flight. *)
let contended_failover =
  let hosts = 8 and sessions = 16 and requests = 256 and kill_after = 2000. in
  let size = { Setup.small with Setup.compute_hosts = hosts } in
  let groups = List.length size.Setup.hypervisors in
  let spec =
    {
      Platform.default_spec with
      Platform.workers = 4;
      mode = Platform.Full;
      controller_config = Setup.controller_config;
    }
  in
  let vm s = Printf.sprintf "cf%02d" s in
  let cycle =
    [ `Spawn; `Stop; `Migrate; `Start; `Migrate; `Stop; `Migrate; `Start;
      `Migrate; `Destroy ]
  in
  (* Session [s]'s requests, and where they leave its VM: [Some (host,
     running)], or [None] once destroyed.  The seed picks the hosts. *)
  let plan ~seed s =
    let rng = Random.State.make [| seed; s |] in
    let group =
      List.filter (fun h -> h mod groups = s mod groups) (List.init hosts Fun.id)
    in
    let pick hs = List.nth hs (Random.State.int rng (List.length hs)) in
    let storage =
      Data.Path.to_string (Setup.storage_path (s mod size.Setup.storage_hosts))
    in
    let vm = vm s in
    let step placed op =
      match (op, placed) with
      | `Spawn, _ ->
        let h = pick group in
        ( ("spawnVM",
           Procs.spawn_vm_args ~vm ~template:"base.img" ~mem_mb:1024 ~storage
             ~host:(host h)),
          Some (h, true) )
      | `Stop, Some (h, _) ->
        (("stopVM", Procs.stop_vm_args ~host:(host h) ~vm), Some (h, false))
      | `Start, Some (h, _) ->
        (("startVM", Procs.start_vm_args ~host:(host h) ~vm), Some (h, true))
      | `Migrate, Some (h, running) ->
        let dst = pick (List.filter (fun d -> d <> h) group) in
        ( ("migrateVM", Procs.migrate_vm_args ~src:(host h) ~dst:(host dst) ~vm),
          Some (dst, running) )
      | `Destroy, Some (h, _) ->
        (("destroyVM", Procs.destroy_vm_args ~host:(host h) ~storage ~vm), None)
      | (`Stop | `Start | `Migrate | `Destroy), None ->
        invalid_arg "plan: no VM to act on"
    in
    let rec go k placed acc =
      if k = requests then (List.rev acc, placed)
      else
        let req, placed =
          step placed (List.nth cycle (k mod List.length cycle))
        in
        go (k + 1) placed (req :: acc)
    in
    go 0 None []
  in
  let drive ~seed ctx =
    let killer =
      Des.Proc.spawn ~name:"killer" ctx.Harness.d.Harness.sim (fun () ->
          Des.Proc.sleep kill_after;
          Harness.kill_leader ctx)
    in
    Harness.run_sessions ctx
      (List.init sessions (fun s () ->
           List.iter
             (fun (proc, args) -> Harness.request ctx ~proc ~args)
             (fst (plan ~seed s))));
    ignore (Des.Proc.await killer)
  in
  let check ~seed r =
    let platform = Harness.platform r in
    let tree = Platform.logical_tree platform in
    let ctx = r.Harness.ctx in
    List.concat_map
      (fun s ->
        let expected =
          match snd (plan ~seed s) with
          | None -> []
          | Some (h, running) ->
            [ (h,
               if running then Devices.Schema.state_running
               else Devices.Schema.state_stopped) ]
        in
        misplaced (vm s) ~expected ~found:(placements tree ~hosts (vm s)))
      (List.init sessions Fun.id)
    @ (if Float.is_nan ctx.Harness.first_commit_at then
         [ "nothing committed under the new leader" ]
       else [])
    @ layer_problems platform ctx.Harness.d.Harness.inv
  in
  {
    name = "contended-failover";
    slo_s = 60.0;
    deploy =
      (fun ~seed ~traced ->
        Harness.deploy ~seed ~timing:`Process ~traced size spec);
    drive;
    check;
  }

let all = [ commit_path; ec2_burst; contended_failover ]
