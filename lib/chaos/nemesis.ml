type env = {
  platform : Tropic.Platform.t;
  computes : (Data.Path.t * Devices.Compute.t) array;
  devices : Devices.Device.t list;
  live_txns : unit -> int list;
  trace : string -> unit;
}

type t = {
  nenv : env;
  rng : Random.State.t;
  ctrl_down : bool array;
  worker_down : bool array;
  mutable partitioned : bool;
  mutable churning : bool; (* a member-churn cycle is in progress *)
  mutable fired_count : int;
  mutable removed : string list;
  mutable storm_submitted : string list; (* storm VM names, newest first *)
  mutable storm_ids : int list; (* acked storm txn ids, newest first *)
}

let fired t = t.fired_count
let oob_removed t = t.removed
let storm_vms t = t.storm_submitted
let storm_txns t = t.storm_ids

let pick t = function
  | [] -> None
  | xs -> Some (List.nth xs (Random.State.int t.rng (List.length xs)))

let inject t message =
  t.fired_count <- t.fired_count + 1;
  t.nenv.trace message

let skip t message = t.nenv.trace ("skip: " ^ message)

(* ------------------------------------------------------------------ *)
(* Actions *)

let up_controllers t =
  let ups = ref [] in
  Array.iteri
    (fun i down -> if not down then ups := i :: !ups)
    t.ctrl_down;
  List.rev !ups

let crash_controller t target down_for =
  let ups = up_controllers t in
  if List.length ups <= 1 then skip t "last controller standing"
  else
    let choice =
      match target with
      | Schedule.Leader ->
        (match Tropic.Platform.leader_index t.nenv.platform with
         | Some i when not t.ctrl_down.(i) -> Some i
         | Some _ | None -> None)
      | Schedule.Random -> pick t ups
    in
    match choice with
    | None -> skip t "no eligible controller"
    | Some i ->
      t.ctrl_down.(i) <- true;
      inject t (Printf.sprintf "crash controller-%d (down %.0fs)" i down_for);
      Tropic.Platform.kill_controller t.nenv.platform i;
      Des.Proc.sleep down_for;
      Tropic.Platform.restart_controller t.nenv.platform i;
      t.ctrl_down.(i) <- false;
      t.nenv.trace (Printf.sprintf "restart controller-%d" i)

(* Same crash/restart cycle as [crash_controller], but aimed at one
   shard's replica group: the victim is whoever currently leads that
   shard, so on a schedule that fires mid-2PC the crash lands between
   prepare and decision.  Guarded like the generic crash — never the
   shard's last controller standing. *)
let crash_shard_leader t shard down_for =
  let platform = t.nenv.platform in
  if shard < 0 || shard >= Tropic.Platform.shard_count platform then
    skip t (Printf.sprintf "no shard %d" shard)
  else begin
    let per_shard = (Tropic.Platform.spec platform).Tropic.Platform.controllers in
    let slots = List.init per_shard (fun j -> (shard * per_shard) + j) in
    let ups = List.filter (fun i -> not t.ctrl_down.(i)) slots in
    if List.length ups <= 1 then
      skip t (Printf.sprintf "last controller of shard %d standing" shard)
    else
      match Tropic.Platform.shard_leader_index platform shard with
      | Some i when not t.ctrl_down.(i) ->
        t.ctrl_down.(i) <- true;
        inject t
          (Printf.sprintf "crash shard %d leader controller-%d (down %.0fs)"
             shard i down_for);
        Tropic.Platform.kill_controller platform i;
        Des.Proc.sleep down_for;
        Tropic.Platform.restart_controller platform i;
        t.ctrl_down.(i) <- false;
        t.nenv.trace (Printf.sprintf "restart controller-%d" i)
      | Some _ | None -> skip t (Printf.sprintf "shard %d has no leader" shard)
  end

(* Members of the current effective configuration that are up.  Node ids
   are no longer a contiguous range: replicas added at runtime take the
   next free node id, and removed-but-running instances are not members. *)
let live_members ens =
  List.filter (Coord.Ensemble.replica_up ens) (Coord.Ensemble.members ens)

let crash_coord_replica t target down_for =
  let ens = Tropic.Platform.coord t.nenv.platform in
  let n = List.length (Coord.Ensemble.members ens) in
  let ups = live_members ens in
  if t.partitioned then skip t "coord crash during partition"
  else if t.churning then skip t "coord crash during member churn"
  else if 2 * (List.length ups - 1) <= n then skip t "would break quorum"
  else
    let choice =
      match target with
      | Schedule.Leader ->
        (match Coord.Ensemble.leader_id ens with
         | Some i when Coord.Ensemble.replica_up ens i -> Some i
         | Some _ | None -> None)
      | Schedule.Random -> pick t ups
    in
    match choice with
    | None -> skip t "no eligible replica"
    | Some i ->
      inject t (Printf.sprintf "crash coord replica %d (down %.0fs)" i down_for);
      Coord.Ensemble.crash_replica ens i;
      Des.Proc.sleep down_for;
      if not (Coord.Ensemble.replica_up ens i) then
        Coord.Ensemble.restart_replica ens i;
      t.nenv.trace (Printf.sprintf "restart coord replica %d" i)

let partition_coord_leader t heal_after =
  let ens = Tropic.Platform.coord t.nenv.platform in
  let members = Coord.Ensemble.members ens in
  if t.partitioned then skip t "partition already active"
  else if t.churning then skip t "partition during member churn"
  else if List.length (live_members ens) < List.length members then
    skip t "partition while a replica is down"
  else
    match Coord.Ensemble.leader_id ens with
    | None -> skip t "no coordination leader to partition"
    | Some leader ->
      let others = List.filter (fun i -> i <> leader) members in
      t.partitioned <- true;
      inject t
        (Printf.sprintf "partition coord leader %d from peers (heal %.0fs)"
           leader heal_after);
      let net = Coord.Ensemble.net ens in
      Des.Net.partition net [ leader ] others;
      Des.Proc.sleep heal_after;
      Des.Net.heal net;
      t.partitioned <- false;
      t.nenv.trace "heal partition"

let fault_burst t probability lasting =
  inject t (Printf.sprintf "fault burst p=%.2f for %.0fs" probability lasting);
  let set p =
    List.iter
      (fun device ->
        match
          Devices.Fault.set_probability (Devices.Device.faults device) p
        with
        | Ok () -> ()
        | Error reason -> t.nenv.trace ("fault burst rejected: " ^ reason))
      t.nenv.devices
  in
  set probability;
  Des.Proc.sleep lasting;
  set 0.;
  t.nenv.trace "fault burst over"

let random_compute t =
  let n = Array.length t.nenv.computes in
  if n = 0 then None else Some t.nenv.computes.(Random.State.int t.rng n)

let fail_next_device_action t action =
  match random_compute t with
  | None -> skip t "no compute hosts"
  | Some (root, compute) ->
    inject t
      (Printf.sprintf "arm one-shot %s failure on %s" action
         (Data.Path.to_string root));
    Devices.Fault.fail_next
      (Devices.Device.faults (Devices.Compute.device compute))
      ~action

(* The device kind whose dispatcher implements [action] — a hang must be
   aimed at a device that will actually run it, or the plan is inert. *)
let kind_of_action action =
  let storage =
    Devices.Schema.
      [ act_clone_image; act_remove_image; act_export_image; act_unexport_image ]
  and switch =
    Devices.Schema.[ act_create_vlan; act_remove_vlan; act_add_port; act_remove_port ]
  in
  if List.mem action storage then Devices.Schema.storage_host_kind
  else if List.mem action switch then Devices.Schema.switch_kind
  else Devices.Schema.vm_host_kind

(* Arm the hang on one random device of the matching kind (arming every
   device would multiply each schedule step into one hang per device —
   and at a ~30 s deadline rescue each, a storm of them outlasts any
   reasonable quiescence horizon). *)
let hang_next_device_action t action =
  let eligible =
    List.filter
      (fun d -> Devices.Device.kind d = kind_of_action action)
      t.nenv.devices
  in
  match pick t eligible with
  | None -> skip t (Printf.sprintf "no device runs %s" action)
  | Some device ->
    inject t
      (Printf.sprintf "arm one-shot %s hang on %s" action
         (Data.Path.to_string (Devices.Device.root device)));
    Devices.Fault.hang_next (Devices.Device.faults device) ~action

let up_workers t =
  let ups = ref [] in
  Array.iteri
    (fun i down -> if not down then ups := i :: !ups)
    t.worker_down;
  List.rev !ups

let crash_worker t down_for =
  match pick t (up_workers t) with
  | None -> skip t "no worker standing"
  | Some i ->
    t.worker_down.(i) <- true;
    inject t (Printf.sprintf "crash worker-%d (down %.0fs)" i down_for);
    Tropic.Platform.kill_worker t.nenv.platform i;
    Des.Proc.sleep down_for;
    Tropic.Platform.restart_worker t.nenv.platform i;
    t.worker_down.(i) <- false;
    t.nenv.trace (Printf.sprintf "restart worker-%d" i)

let power_cycle_host t =
  match random_compute t with
  | None -> skip t "no compute hosts"
  | Some (root, compute) ->
    inject t (Printf.sprintf "power-cycle %s" (Data.Path.to_string root));
    Devices.Compute.power_cycle compute

(* VMs across all hosts currently in [state]. *)
let vms_in_state t state =
  Array.fold_left
    (fun acc (root, compute) ->
      List.fold_left
        (fun acc vm ->
          if Devices.Compute.vm_state compute vm = Some state then
            (root, compute, vm) :: acc
          else acc)
        acc
        (Devices.Compute.vm_names compute))
    [] t.nenv.computes
  |> List.rev

let oob_stop_vm t =
  match pick t (vms_in_state t `Running) with
  | None -> skip t "no running VM to stop out-of-band"
  | Some (root, compute, vm) ->
    inject t
      (Printf.sprintf "out-of-band stop of %s on %s" vm
         (Data.Path.to_string root));
    Devices.Compute.force_set_vm_state compute vm `Stopped

let oob_remove_vm t =
  match pick t (vms_in_state t `Stopped) with
  | None -> skip t "no stopped VM to remove out-of-band"
  | Some (root, compute, vm) ->
    inject t
      (Printf.sprintf "out-of-band removal of %s from %s" vm
         (Data.Path.to_string root));
    t.removed <- vm :: t.removed;
    Devices.Compute.force_remove_vm compute vm

(* Transactions are live for only milliseconds under instant device
   timing, so sampling a single instant would almost never find one:
   poll until one appears (or the hunt window closes). *)
let hunt_live_txn t ~window =
  let deadline = Des.Proc.now () +. window in
  let rec go () =
    match pick t (t.nenv.live_txns ()) with
    | Some id -> Some id
    | None ->
      if Des.Proc.now () +. 0.02 > deadline then None
      else begin
        Des.Proc.sleep 0.02;
        go ()
      end
  in
  go ()

let signal_txn t signal stall =
  match hunt_live_txn t ~window:15. with
  | None -> skip t "no live transaction to signal"
  | Some txn_id ->
    let name = match signal with `Term -> "TERM" | `Kill -> "KILL" in
    t.nenv.trace
      (Printf.sprintf "stalking txn %d (%s after %.1fs stall)" txn_id name
         stall);
    Des.Proc.sleep stall;
    let target =
      if List.mem txn_id (t.nenv.live_txns ()) then Some txn_id
      else hunt_live_txn t ~window:3.
    in
    match target with
    | None -> skip t "no live transaction after stall"
    | Some txn_id ->
      inject t (Printf.sprintf "%s txn %d" name txn_id);
      Tropic.Platform.signal t.nenv.platform txn_id
        (match signal with `Term -> Tropic.Proto.Term | `Kill -> Tropic.Proto.Kill)

(* Flap a specific host between healthy and always-failing: probability
   1.0 makes every device action fail transiently (retries engage, then
   exhaust), 0.0 restores it — the pattern health scoring must recognise
   and fence off. *)
let flap_device t host up_for down_for cycles =
  if host < 0 || host >= Array.length t.nenv.computes then
    skip t (Printf.sprintf "no compute host %d to flap" host)
  else begin
    let root, compute = t.nenv.computes.(host) in
    let faults = Devices.Device.faults (Devices.Compute.device compute) in
    inject t
      (Printf.sprintf "flap %s: %d cycles of %.0fs up / %.0fs down"
         (Data.Path.to_string root) cycles up_for down_for);
    let set p =
      match Devices.Fault.set_probability faults p with
      | Ok () -> ()
      | Error reason -> t.nenv.trace ("flap rejected: " ^ reason)
    in
    for _ = 1 to cycles do
      Des.Proc.sleep up_for;
      set 1.0;
      Des.Proc.sleep down_for;
      set 0.
    done;
    t.nenv.trace "flap over"
  end

(* Fire-and-forget request flood against the flappable hot host: nobody
   awaits these, so under admission control the excess is shed with the
   fast overload abort while the accepted ones drain normally. *)
let request_storm t count gap =
  if Array.length t.nenv.computes = 0 then skip t "no compute hosts"
  else begin
    let root, _ = t.nenv.computes.(0) in
    inject t
      (Printf.sprintf "request storm: %d spawns on %s, %.2fs apart" count
         (Data.Path.to_string root) gap);
    for i = 1 to count do
      let vm = Printf.sprintf "storm%03d" i in
      t.storm_submitted <- vm :: t.storm_submitted;
      (* [submit] returning means the enqueue was acked by the
         coordination service — from here on the request must be durable
         (the acked-durable invariant holds every one of these ids to a
         terminal record at quiescence). *)
      let id =
        Tropic.Platform.submit t.nenv.platform ~proc:"spawnVM"
          ~args:
            (Tcloud.Procs.spawn_vm_args ~vm ~template:"base.img" ~mem_mb:256
               ~storage:(Data.Path.to_string (Tcloud.Setup.storage_path 0))
               ~host:(Data.Path.to_string root))
      in
      t.storm_ids <- id :: t.storm_ids;
      Des.Proc.sleep gap
    done;
    t.nenv.trace "storm submitted"
  end

(* Remove a random non-leader member and re-add a fresh instance at the
   same node id, all within one leader term.  Extra latency on the victim
   keeps the old incarnation's high-match append replies in flight across
   the remove/re-add: with replication session ids the leader rejects them
   as stale; without, they corrupt the fresh learner's progress entry —
   the leader then believes a wiped replica holds entries it never
   received (convicted by the progress-integrity invariant).  The latency
   clears after [gap] seconds so the learner's catch-up can finish. *)
let member_churn t delay gap =
  let ens = Tropic.Platform.coord t.nenv.platform in
  let members = Coord.Ensemble.members ens in
  if t.partitioned then skip t "member churn during partition"
  else if t.churning then skip t "member churn already active"
  else if List.exists (fun i -> not (Coord.Ensemble.replica_up ens i)) members
  then skip t "member churn while a member is down"
  else if List.length members < 3 then skip t "membership too small to churn"
  else
    match Coord.Ensemble.leader_id ens with
    | None -> skip t "no coordination leader"
    | Some leader ->
      (match pick t (List.filter (fun i -> i <> leader) members) with
       | None -> skip t "no non-leader member to churn"
       | Some victim ->
         t.churning <- true;
         inject t
           (Printf.sprintf
              "member churn: +%.1fs latency on replica %d, remove, re-add"
              delay victim);
         let net = Coord.Ensemble.net ens in
         Des.Net.set_node_delay net victim delay;
         (* Let the victim answer a few heartbeats first — it still hears
            the leader on time, but its replies (full match index, the
            pre-removal session id) are now in flight with the egress
            latency and will land after the remove/re-add. *)
         Des.Proc.sleep 0.15;
         Coord.Ensemble.remove_replica ens victim;
         (* Clear the latency after [gap] from a side process: add_replica
            below blocks until the learner catches up, which needs the
            link back at LAN speed. *)
         ignore
           (Des.Proc.spawn
              ~name:(Printf.sprintf "nemesis-churn-clear-%d" victim)
              (Tropic.Platform.sim t.nenv.platform)
              (fun () ->
                Des.Proc.sleep gap;
                Des.Net.set_node_delay net victim 0.));
         ignore (Coord.Ensemble.add_replica ens ~id:victim ());
         t.churning <- false;
         t.nenv.trace
           (Printf.sprintf "member churn over: replica %d rejoined" victim))

let perform t = function
  | Schedule.Crash_controller { target; down_for } ->
    crash_controller t target down_for
  | Schedule.Crash_coord_replica { target; down_for } ->
    crash_coord_replica t target down_for
  | Schedule.Partition_coord_leader { heal_after } ->
    partition_coord_leader t heal_after
  | Schedule.Fault_burst { probability; lasting } ->
    fault_burst t probability lasting
  | Schedule.Fail_next_device_action action -> fail_next_device_action t action
  | Schedule.Hang_next_device_action action -> hang_next_device_action t action
  | Schedule.Crash_worker { down_for } -> crash_worker t down_for
  | Schedule.Power_cycle_host -> power_cycle_host t
  | Schedule.Oob_stop_vm -> oob_stop_vm t
  | Schedule.Oob_remove_vm -> oob_remove_vm t
  | Schedule.Signal_txn { signal; stall } -> signal_txn t signal stall
  | Schedule.Flap_device { host; up_for; down_for; cycles } ->
    flap_device t host up_for down_for cycles
  | Schedule.Request_storm { count; gap } -> request_storm t count gap
  | Schedule.Crash_shard_leader { shard; down_for } ->
    crash_shard_leader t shard down_for
  | Schedule.Member_churn { delay; gap } -> member_churn t delay gap

(* ------------------------------------------------------------------ *)
(* Trigger compilation *)

let fire_times t trigger =
  match trigger with
  | Schedule.At time -> [ time ]
  | Schedule.Every { start; period; until } ->
    if period <= 0. then [ start ]
    else begin
      let times = ref [] in
      let time = ref start in
      while !time <= until do
        times := !time :: !times;
        time := !time +. period
      done;
      List.rev !times
    end
  | Schedule.Random_window { start; until; count } ->
    (* Drawn once at install time from the seeded rng: deterministic. *)
    List.init count (fun _ ->
        start +. (Random.State.float t.rng (Float.max 0. (until -. start))))
    |> List.sort compare

let install env schedule =
  let sim = Tropic.Platform.sim env.platform in
  let t =
    {
      nenv = env;
      rng = Des.Sim.rng sim;
      ctrl_down =
        Array.make (Array.length (Tropic.Platform.controllers env.platform)) false;
      worker_down =
        Array.make (Array.length (Tropic.Platform.workers env.platform)) false;
      partitioned = false;
      churning = false;
      fired_count = 0;
      removed = [];
      storm_submitted = [];
      storm_ids = [];
    }
  in
  List.iteri
    (fun i { Schedule.trigger; action } ->
      let times = fire_times t trigger in
      ignore
        (Des.Proc.spawn
           ~name:(Printf.sprintf "nemesis-%s-%d" schedule.Schedule.name i)
           sim
           (fun () ->
             List.iter
               (fun time ->
                 let delay = time -. Des.Sim.now sim in
                 if delay > 0. then Des.Proc.sleep delay;
                 (* Each firing runs in its own process so a long action
                    (restart delays, stalls) never pushes later firings. *)
                 ignore
                   (Des.Proc.spawn
                      ~name:
                        (Printf.sprintf "nemesis-%s-%d@%.0f"
                           schedule.Schedule.name i time)
                      sim
                      (fun () -> perform t action)))
               times)))
    schedule.Schedule.steps;
  t
