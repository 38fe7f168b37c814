type build =
  | Stock
  | No_constraints
  | No_guard_locks
  | No_watchdog
  | No_breaker
  | No_plan_deps
  | No_2pc
  | No_session_ids
  | Unsafe_ack

let build_to_string = function
  | Stock -> "stock"
  | No_constraints -> "no-constraints"
  | No_guard_locks -> "no-guard-locks"
  | No_watchdog -> "no-watchdog"
  | No_breaker -> "no-breaker"
  | No_plan_deps -> "no-plan-deps"
  | No_2pc -> "no-2pc"
  | No_session_ids -> "no-session-id"
  | Unsafe_ack -> "unsafe-ack"

let build_of_string = function
  | "stock" -> Ok Stock
  | "no-constraints" -> Ok No_constraints
  | "no-guard-locks" -> Ok No_guard_locks
  | "no-watchdog" -> Ok No_watchdog
  | "no-breaker" -> Ok No_breaker
  | "no-plan-deps" -> Ok No_plan_deps
  | "no-2pc" -> Ok No_2pc
  | "no-session-id" | "no-session-ids" -> Ok No_session_ids
  | "unsafe-ack" -> Ok Unsafe_ack
  | other ->
    Error
      (Printf.sprintf
         "unknown build %S (expected stock, no-constraints, no-guard-locks, \
          no-watchdog, no-breaker, no-plan-deps, no-2pc, no-session-id or \
          unsafe-ack)"
         other)

type config = {
  build : build;
  hosts : int;
  txns : int;
  horizon : float;
  quiesce_grace : float;
}

let default_config =
  { build = Stock; hosts = 8; txns = 40; horizon = 500.; quiesce_grace = 12. }

let quick_config = { default_config with txns = 16; horizon = 400. }

type result = {
  schedule : string;
  seed : int;
  rbuild : build;
  committed : int;
  aborted : int;
  failed : int;
  injected : int;
  stats : Tropic.Controller.stats list;
  membership : Coord.Types.membership_stats;
  group : Coord.Types.group_stats;
  violations : Invariant.violation list;
  trace : string list;
  span_dump : string list;
  duration : float;
}

let total r f = List.fold_left (fun acc s -> acc + f s) 0 r.stats

let reproducer r =
  Printf.sprintf "tropic_exp chaos --build %s --schedule %s --seed %d"
    (build_to_string r.rbuild) r.schedule r.seed

(* How often the controller's sweeper compares the layers and repairs. *)
let repair_interval = 5.0

(* Watchdog tuned for this harness: a Started transaction can sit in phyQ
   for tens of seconds behind 4 busy workers, so the flat slack must cover
   queueing on top of the per-log latency estimate.  Deadline for a
   spawnVM log lands around 105 s — far past honest queueing, far before
   the stall budget below. *)
let watchdog_config =
  {
    Tropic.Watchdog.default_config with
    Tropic.Watchdog.latency_factor = 6.;
    slack = 60.;
    term_grace = 15.;
    kill_grace = 15.;
  }

(* Stuck-lock conviction threshold for the continuous invariant: past the
   watchdog's worst-case rescue (deadline + both graces + signal
   processing), well before the horizon. *)
let stall_budget = 240.0

(* Health scoring tuned for the flap cadence: two clean failures on a
   root push the combined score past the threshold, and the cooldown is
   long enough that the canary usually lands in a healthy up-phase after
   a couple of re-trips.  latency_ref sits past the watchdog deadline so
   honest queueing never trips a breaker on its own. *)
let health_config =
  {
    Tropic.Health.default_config with
    Tropic.Health.alpha = 0.4;
    trip_threshold = 0.6;
    cooldown = 20.;
    latency_ref = 150.;
    poll_interval = 1.0;
  }

(* Admission watermarks: shed at 48 pending, resume at 32.  The
   bounded-queue budget sits above the high watermark — with shedding on,
   the pending count cannot legitimately reach it. *)
let admission_watermarks =
  { Tropic.Health.queue_high = Some 48; queue_low = 32 }

let queue_budget = 64

(* ------------------------------------------------------------------ *)
(* Deterministic workload.

   Transaction chain [k] spawns VM "cNNN"; every 4th chain targets host 0
   with an oversized VM (the hot host — under constraints those spawns
   abort once memory runs out, without constraints they overcommit and
   the invariant tracker must catch it).  Every 5th chain stops its VM
   after spawning, every 10th destroys it after stopping. *)

type op_kind = Spawn | Stop | Destroy | Migrated  (** op_host = destination *)

type op = { kind : op_kind; op_vm : string; op_host : int }

let chain_plan config k =
  let hot = k mod 4 = 3 in
  let host = if hot then 0 else k mod config.hosts in
  let mem = if hot then 2048 else 512 in
  let vm = Printf.sprintf "c%03d" k in
  let stop = k mod 5 = 2 in
  let destroy = k mod 10 = 2 in
  (vm, host, mem, stop, destroy)

let storage_hosts = 2

(* ------------------------------------------------------------------ *)
(* Goal-state convergence workload (the plan-crash schedule).

   Two declarative goals, executed in sequence by [Plan.Executor]:
   populate hosts 0 and 2 (both xen) to the brim — two 4096 MB VMs each —
   then swap one VM between them.  The swap is the planner's hardest
   shape: both hosts are full, so the migrations need drain-before-fill
   capacity edges, which form a cycle the planner breaks with a staging
   hop through host 4.  The no-plan-deps build drops every edge, so both
   migrations race straight into full hosts, abort on the memory
   constraint every round, and the phase livelocks — the plan-converged
   invariant convicts it.  Leader/worker crashes land mid-plan; the
   re-diff between rounds makes resumption idempotent, which the
   exactly-once check verifies against the final goal's placement. *)

let plan_vm name = { Plan.Model.vm_name = name; running = true; mem_mb = 4096 }

let plan_switch =
  {
    Plan.Model.switch_index = 0;
    vlans =
      [ { Plan.Model.vlan_id = 100; vlan_name = "plan"; ports = [ "p0"; "q0" ] } ];
  }

let plan_host index vms = { Plan.Model.host_index = index; vms }

let converge_populate_goal =
  {
    Plan.Model.hosts =
      [
        plan_host 0 [ plan_vm "p0"; plan_vm "p1" ];
        plan_host 2 [ plan_vm "q0"; plan_vm "q1" ];
        plan_host 4 [];
      ];
    switches = [ plan_switch ];
  }

let converge_swap_goal =
  {
    Plan.Model.hosts =
      [
        plan_host 0 [ plan_vm "q0"; plan_vm "p1" ];
        plan_host 2 [ plan_vm "p0"; plan_vm "q1" ];
        plan_host 4 [];
      ];
    switches = [ plan_switch ];
  }

(* Expected per-VM placement at quiescence: the last goal, verbatim. *)
let converge_expected_fates goal =
  List.concat_map
    (fun (h : Plan.Model.host_goal) ->
      List.map
        (fun (vm : Plan.Model.vm_goal) ->
          {
            Invariant.vm = vm.Plan.Model.vm_name;
            host = h.Plan.Model.host_index;
            present = true;
            running = vm.Plan.Model.running;
          })
        h.Plan.Model.vms)
    goal.Plan.Model.hosts

(* ------------------------------------------------------------------ *)

let run_one ?(trace = false) config ~schedule ~seed =
  let sim = Des.Sim.create ~seed () in
  (* Span recorder: always on, so every violating seed carries its span
     tree (the reproducer replays it as a dump) and the lifecycle
     invariants below get checked on all 128 sweep runs, not just
     replays. *)
  let tracer = Trace.create ~sim () in
  let size =
    {
      Tcloud.Setup.small with
      Tcloud.Setup.compute_hosts = config.hosts;
      storage_hosts;
      storage_capacity_mb = 5_000_000;
    }
  in
  (* The migrate workload shuttles VMs between adjacent hosts; a uniform
     hypervisor keeps every pair legal under the §6.2 VM-type rule. *)
  let size =
    match schedule.Schedule.workload with
    | Schedule.Migrate -> { size with Tcloud.Setup.hypervisors = [ "xen" ] }
    | Schedule.Chains | Schedule.Converge -> size
  in
  (* Process timing: device actions take simulated seconds, so chains
     overlap and conflicting transactions really park in the blocked
     table (the window the blocked-crash schedule aims its crashes at).
     Instant timing would serialize the whole workload trivially. *)
  let inventory =
    Tcloud.Setup.build ~timing:`Process ~rng:(Des.Sim.rng sim) size
  in
  let env =
    match config.build with
    | No_constraints ->
      (* Same actions and procedures, no logical-layer constraints: the
         ablation the harness must be able to convict. *)
      Tcloud.Setup.env_without_constraints ()
    | Stock | No_guard_locks | No_watchdog | No_breaker | No_plan_deps
    | No_2pc | No_session_ids | Unsafe_ack ->
      inventory.Tcloud.Setup.env
  in
  (* No_watchdog strips the whole robustness layer — watchdog AND the
     workers' retry/deadline policy.  Leaving deadlines on would rescue
     hung invocations anyway and hide exactly the stalls the ablation is
     meant to exhibit.  No_breaker strips only the overload layer —
     health scoring, breakers and admission control — keeping the
     watchdog and retries, so the flap-storm conviction isolates exactly
     what the breakers buy. *)
  let robust = config.build <> No_watchdog in
  let breaker = config.build <> No_breaker in
  let controller_config =
    {
      Tcloud.Setup.controller_config with
      Tropic.Controller.repair_interval = Some repair_interval;
      constraint_guard_locks = config.build <> No_guard_locks;
      watchdog =
        (if robust then watchdog_config else Tropic.Watchdog.disabled);
      health = (if breaker then health_config else Tropic.Health.disabled);
      admission =
        (if breaker then admission_watermarks else Tropic.Health.no_admission);
      (* No_2pc skips the durable cross-shard decision record: a crashed
         coordinator presumes abort on transactions whose commit already
         reached the other shard — the ablation the shard-crash schedule
         must convict. *)
      twopc_decision_record = config.build <> No_2pc;
    }
  in
  let platform =
    Tropic.Platform.create
      {
        Tropic.Platform.default_spec with
        Tropic.Platform.controllers = 3;
        workers = 4;
        shards = schedule.Schedule.shards;
        mode = Tropic.Platform.Full;
        (* No_session_ids drops the replication-session check on append
           replies: a response from a node removed and re-added within
           one term then corrupts the fresh incarnation's progress entry
           — the ablation the member-churn schedule must convict. *)
        coord_config =
          {
            Coord.Types.default_config with
            Coord.Types.session_ids = config.build <> No_session_ids;
            (* Unsafe_ack releases client acks at enqueue instead of
               after batch quorum: a coordination leader crash inside the
               batch window then loses acked submissions — the ablation
               the commit-storm schedule must convict.  For that schedule
               only, the batch window is stretched to the storm's
               submission gap so a leader crash during the storm reliably
               lands while acked commands are still short of quorum;
               stock group commit defers those acks and stays clean
               regardless.  Other schedules keep the default window —
               their convictions are tuned to sub-ms ack latency. *)
            unsafe_ack = config.build = Unsafe_ack;
            group_timeout =
              (if schedule.Schedule.name = "commit-storm" then 0.05
               else Coord.Types.default_config.Coord.Types.group_timeout);
          };
        controller_config;
        (* Generous enough that a healed 8 s partition does not expire
           live controller sessions behind their backs. *)
        controller_session_timeout = 5.0;
        worker_retry =
          (if robust then Tropic.Physical.default_retry
           else Tropic.Physical.no_retry);
        trace = Some tracer;
      }
      env ~initial_tree:inventory.Tcloud.Setup.tree
      ~devices:inventory.Tcloud.Setup.devices sim
  in
  let trace_buf = ref [] in
  let tr line =
    trace_buf := Printf.sprintf "[%8.2f] %s" (Des.Sim.now sim) line :: !trace_buf
  in
  let tr_verbose line = if trace then tr line in
  (* Workload bookkeeping *)
  let ops = ref [] in (* (txn_id, op), newest first *)
  let states = Hashtbl.create 64 in (* txn_id -> final state *)
  let live = Hashtbl.create 16 in
  let completed = ref 0 in
  let submit_op op ~proc ~args =
    let id = Tropic.Platform.submit platform ~proc ~args in
    ops := (id, op) :: !ops;
    Hashtbl.replace live id ();
    tr_verbose
      (Printf.sprintf "txn %d: %s %s @ host %d" id proc op.op_vm op.op_host);
    let state = Tropic.Platform.await platform id in
    Hashtbl.remove live id;
    Hashtbl.replace states id state;
    tr_verbose
      (Printf.sprintf "txn %d: %s" id (Tropic.Txn.state_to_string state));
    state
  in
  let workload = schedule.Schedule.workload in
  let workload_target =
    match workload with
    | Schedule.Chains | Schedule.Migrate -> config.txns
    | Schedule.Converge -> 1
  in
  let plan_reports = ref [] in
  (* Operator move shared by the quiesce monitor and the converge
     driver: [reload] every device subtree whose divergence has no
     repair rule (out-of-band removals, crash-stranded partial effects
     such as an orphaned cloned image).  Returns how many were
     reloaded.  Must run inside a simulation process. *)
  let reload_unrepairable () =
    (* Judge each device against its owning shard's leader view (grafted
       into one platform-wide tree); blocks until every shard leads. *)
    let tree = Tropic.Platform.composite_tree platform in
    let reloaded = ref 0 in
    List.iter
      (fun device ->
        match
          Tropic.Recon.drift ~rules:Tcloud.Rules.repair_rules tree device
        with
        | Tropic.Recon.Differs { unrepaired = _ :: _; _ } ->
          let root = Devices.Device.root device in
          incr reloaded;
          tr (Printf.sprintf "operator reload of %s" (Data.Path.to_string root));
          Tropic.Platform.reload platform root
        | Tropic.Recon.Same | Tropic.Recon.Missing _ | Tropic.Recon.Differs _ ->
          ())
      inventory.Tcloud.Setup.devices;
    !reloaded
  in
  (match workload with
   | Schedule.Converge ->
     ignore
       (Des.Proc.spawn ~name:"converge-driver" sim (fun () ->
            Des.Proc.sleep 5.0;
            let ctx =
              { Plan.Planner.storage_hosts; template = "base.img" }
            in
            (* Generous rounds: crashes can burn several re-plans. *)
            let econfig =
              {
                Plan.Executor.parallelism = 4;
                max_rounds = 12;
                round_delay = 2.0;
              }
            in
            let ordered = config.build <> No_plan_deps in
            (* A worker crash can strand partial effects — an orphaned
               cloned image, a half-created VM — that no repair rule
               covers and that make the same plan step abort
               deterministically on every re-plan.  When a phase blocks,
               play operator exactly as the quiesce monitor does: reload
               the drifted subtrees (adopting the stranded artifacts into
               the logical layer) and converge again; the fresh diff then
               plans around them.  Only the final attempt per phase
               counts for the plan-converged invariant. *)
            let rec attempt phase model tries =
              let report =
                Plan.Executor.converge ~config:econfig ~ordered platform
                  ctx ~model
              in
              plan_reports := (phase, report) :: !plan_reports;
              tr
                (Printf.sprintf "converge %s: %s" phase
                   (Plan.Executor.summary report));
              if report.Plan.Executor.status <> Plan.Executor.Converged
                 && tries > 0
              then begin
                let reloaded = reload_unrepairable () in
                tr
                  (Printf.sprintf
                     "converge %s: blocked; operator reloaded %d \
                      subtree(s), retrying"
                     phase reloaded);
                Des.Proc.sleep config.quiesce_grace;
                attempt phase model (tries - 1)
              end
            in
            List.iter
              (fun (phase, model) -> attempt phase model 2)
              [
                "populate", converge_populate_goal;
                "swap", converge_swap_goal;
              ];
            incr completed))
   | Schedule.Migrate ->
     (* Per-VM migration chains on a sharded platform: spawn on host [k
        mod hosts] (single-shard), migrate to the adjacent host and back.
        Device roots are assigned round-robin from the sorted root list,
        so adjacent compute hosts land on different shards and every
        migration commits through cross-shard 2PC. *)
     for k = 0 to config.txns - 1 do
       let src = k mod config.hosts in
       let dst = (src + 1) mod config.hosts in
       let vm = Printf.sprintf "m%03d" k in
       let stop = k mod 3 = 2 in
       ignore
         (Des.Proc.spawn ~name:(Printf.sprintf "migrate-%d" k) sim (fun () ->
              Des.Proc.sleep (5.0 +. (0.9 *. float_of_int k));
              let path h =
                Data.Path.to_string (Tcloud.Setup.compute_path h)
              in
              let storage_path =
                Data.Path.to_string
                  (Tcloud.Setup.storage_path (src mod storage_hosts))
              in
              let spawned =
                submit_op { kind = Spawn; op_vm = vm; op_host = src }
                  ~proc:"spawnVM"
                  ~args:
                    (Tcloud.Procs.spawn_vm_args ~vm ~template:"base.img"
                       ~mem_mb:512 ~storage:storage_path ~host:(path src))
              in
              if spawned = Tropic.Txn.Committed then begin
                let out =
                  submit_op { kind = Migrated; op_vm = vm; op_host = dst }
                    ~proc:"migrateVM"
                    ~args:
                      (Tcloud.Procs.migrate_vm_args ~src:(path src)
                         ~dst:(path dst) ~vm)
                in
                let back =
                  if out = Tropic.Txn.Committed then
                    submit_op { kind = Migrated; op_vm = vm; op_host = src }
                      ~proc:"migrateVM"
                      ~args:
                        (Tcloud.Procs.migrate_vm_args ~src:(path dst)
                           ~dst:(path src) ~vm)
                  else out
                in
                (* Where the committed hops left the VM. *)
                let here =
                  match out, back with
                  | Tropic.Txn.Committed, Tropic.Txn.Committed -> src
                  | Tropic.Txn.Committed, _ -> dst
                  | _ -> src
                in
                if stop then
                  ignore
                    (submit_op { kind = Stop; op_vm = vm; op_host = here }
                       ~proc:"stopVM"
                       ~args:(Tcloud.Procs.stop_vm_args ~host:(path here) ~vm))
              end;
              incr completed))
     done
   | Schedule.Chains ->
  for k = 0 to config.txns - 1 do
    let vm, host, mem, stop, destroy = chain_plan config k in
    ignore
      (Des.Proc.spawn ~name:(Printf.sprintf "chain-%d" k) sim (fun () ->
           Des.Proc.sleep (5.0 +. (0.75 *. float_of_int k));
           let host_path = Data.Path.to_string (Tcloud.Setup.compute_path host) in
           let storage_path =
             Data.Path.to_string
               (Tcloud.Setup.storage_path (host mod storage_hosts))
           in
           let spawned =
             submit_op { kind = Spawn; op_vm = vm; op_host = host }
               ~proc:"spawnVM"
               ~args:
                 (Tcloud.Procs.spawn_vm_args ~vm ~template:"base.img" ~mem_mb:mem
                    ~storage:storage_path ~host:host_path)
           in
           (if spawned = Tropic.Txn.Committed && stop then
              let stopped =
                submit_op { kind = Stop; op_vm = vm; op_host = host }
                  ~proc:"stopVM"
                  ~args:(Tcloud.Procs.stop_vm_args ~host:host_path ~vm)
              in
              if stopped = Tropic.Txn.Committed && destroy then
                ignore
                  (submit_op { kind = Destroy; op_vm = vm; op_host = host }
                     ~proc:"destroyVM"
                     ~args:
                       (Tcloud.Procs.destroy_vm_args ~host:host_path
                          ~storage:storage_path ~vm)));
           incr completed))
  done);
  (* Nemesis and continuous invariants *)
  let live_txns () = Hashtbl.fold (fun id () acc -> id :: acc) live [] in
  let nemesis =
    Nemesis.install
      {
        Nemesis.platform;
        computes = inventory.Tcloud.Setup.computes;
        devices = inventory.Tcloud.Setup.devices;
        live_txns;
        trace = tr;
      }
      schedule
  in
  let tracker =
    Invariant.start ~stall_budget ~queue_budget ~platform
      ~computes:inventory.Tcloud.Setup.computes ()
  in
  (* Quiescence monitor: wait for the workload and the schedule, give the
     repair sweeper time, then play operator: [reload] any subtree whose
     divergence has no repair rule (out-of-band removals), and settle.  The
     run ends at the first event after which the monitor has returned and
     the platform is quiescent. *)
  let final_states = Hashtbl.create 64 in
  let storm_states = Hashtbl.create 64 in
  let quiesced =
    Tropic.Platform.run ~until:config.horizon platform (fun () ->
      let deadline = config.horizon -. (3. *. config.quiesce_grace) -. 20. in
      while !completed < workload_target && Des.Sim.now sim < deadline do
        Des.Proc.sleep 1.0
      done;
      let schedule_end = Schedule.end_time schedule +. 10. in
      if Des.Sim.now sim < schedule_end then
        Des.Proc.sleep (schedule_end -. Des.Sim.now sim);
      (* The storm's fire-and-forget backlog must also drain before
         quiescence is declared: acked submissions still parked behind
         workload locks are live transactions, not durability
         violations.  Bounded by the same deadline — a backlog that
         never drains is a wedge the invariants should convict. *)
      let storm_live () =
        List.exists
          (fun id ->
            match Tropic.Platform.txn_state platform id with
            | Some state -> not (Tropic.Txn.is_terminal state)
            | None -> false)
          (Nemesis.storm_txns nemesis)
      in
      while storm_live () && Des.Sim.now sim < deadline do
        Des.Proc.sleep 5.0
      done;
      Des.Proc.sleep config.quiesce_grace;
      if reload_unrepairable () > 0 then Des.Proc.sleep config.quiesce_grace;
      if reload_unrepairable () > 0 then Des.Proc.sleep config.quiesce_grace;
      (* Authoritative final states, including never-awaited stragglers. *)
      List.iter
        (fun (id, _) ->
          match Hashtbl.find_opt states id with
          | Some state -> Hashtbl.replace final_states id state
          | None ->
            (match Tropic.Platform.txn_state platform id with
             | Some state -> Hashtbl.replace final_states id state
             | None -> ()))
        !ops;
      List.iter
        (fun (_, report) ->
          List.iter
            (fun ex ->
              match ex.Plan.Executor.ex_txn with
              | None -> ()
              | Some id ->
                (match Tropic.Platform.txn_state platform id with
                 | Some state -> Hashtbl.replace final_states id state
                 | None -> ()))
            report.Plan.Executor.history)
        !plan_reports;
      (* Storm submissions are fire-and-forget, but each returned id
         was acked by the coordination service — read their records
         here (client queries must run inside the simulation) for the
         acked-durable check below. *)
      List.iter
        (fun id ->
          match Tropic.Platform.txn_state platform id with
          | Some state -> Hashtbl.replace storm_states id state
          | None -> ())
        (Nemesis.storm_txns nemesis))
  in
  Invariant.stop tracker;
  (* Lifecycle invariants over the recorded span tree — only meaningful
     once quiesced: live transactions legitimately hold open spans, and a
     non-quiescent run already reports the [quiescence] violation. *)
  let trace_violations =
    if quiesced then Invariant.check_trace ~at:(Des.Sim.now sim) tracer
    else []
  in
  (* Evaluate *)
  let ordered_ops = List.sort (fun (a, _) (b, _) -> compare a b) !ops in
  let txns =
    match workload with
    | Schedule.Chains | Schedule.Migrate ->
      List.map
        (fun (id, _) -> (id, Hashtbl.find_opt final_states id))
        ordered_ops
    | Schedule.Converge ->
      (* Every transaction the plan executor submitted, across phases and
         rounds; states were read off the persisted records at quiescence
         (the quiesce monitor runs inside the simulation). *)
      List.sort_uniq compare
        (List.concat_map
           (fun (_, report) ->
             List.filter_map
               (fun ex ->
                 match ex.Plan.Executor.ex_txn with
                 | None -> None
                 | Some id -> Some (id, Hashtbl.find_opt final_states id))
               report.Plan.Executor.history)
           !plan_reports)
  in
  let state_of id = Hashtbl.find_opt final_states id in
  (* Fold committed operations, in submission order, into per-VM fates. *)
  let fates = Hashtbl.create 64 in
  List.iter
    (fun (id, op) ->
      if state_of id = Some Tropic.Txn.Committed then
        match op.kind with
        | Spawn ->
          Hashtbl.replace fates op.op_vm
            {
              Invariant.vm = op.op_vm;
              host = op.op_host;
              present = true;
              running = true;
            }
        | Stop ->
          (match Hashtbl.find_opt fates op.op_vm with
           | Some fate -> Hashtbl.replace fates op.op_vm { fate with running = false }
           | None -> ())
        | Migrated ->
          (match Hashtbl.find_opt fates op.op_vm with
           | Some fate -> Hashtbl.replace fates op.op_vm { fate with host = op.op_host }
           | None -> ())
        | Destroy ->
          (match Hashtbl.find_opt fates op.op_vm with
           | Some fate -> Hashtbl.replace fates op.op_vm { fate with present = false }
           | None -> ()))
    ordered_ops;
  let expected =
    match workload with
    | Schedule.Chains | Schedule.Migrate ->
      Hashtbl.fold (fun _ fate acc -> fate :: acc) fates []
    | Schedule.Converge ->
      (* The final goal is the authoritative placement — exactly the
         "no duplicate side-effects across crashes" check. *)
      converge_expected_fates converge_swap_goal
  in
  (* VMs whose fate the harness cannot predict: removed out-of-band, or
     touched by a transaction that Failed (cross-layer inconsistency was
     resolved by adopting the physical state, whatever it was). *)
  let unpredictable = Hashtbl.create 16 in
  List.iter (fun vm -> Hashtbl.replace unpredictable vm ()) (Nemesis.oob_removed nemesis);
  (* Storm submissions are never awaited; whether each one committed,
     was shed, or aborted on capacity depends on timing the harness does
     not model. *)
  List.iter (fun vm -> Hashtbl.replace unpredictable vm ()) (Nemesis.storm_vms nemesis);
  List.iter
    (fun (id, op) ->
      match state_of id with
      | Some (Tropic.Txn.Failed _) -> Hashtbl.replace unpredictable op.op_vm ()
      | _ -> ())
    ordered_ops;
  let skip_vm vm = Hashtbl.mem unpredictable vm in
  let quiescence_violations =
    Invariant.check_quiescence ~platform
      ~computes:inventory.Tcloud.Setup.computes
      ~devices:inventory.Tcloud.Setup.devices ~txns ~expected ~skip_vm
  in
  let crash_violations =
    List.map
      (fun (who, exn) ->
        {
          Invariant.invariant = "no-process-crash";
          at = Des.Sim.now sim;
          detail = Printf.sprintf "%s raised %s" who (Printexc.to_string exn);
        })
      (Des.Sim.failures sim)
  in
  (* Converge workload: every phase must end Converged — a blocked plan
     means residual drift the executor could not drive out.  Only the
     final attempt per phase counts: a phase the driver retried after an
     operator reload is judged by where it ended up, not by the blocked
     intermediate report. *)
  let plan_violations =
    let seen = Hashtbl.create 4 in
    List.filter_map
      (fun (phase, report) ->
        (* [plan_reports] is newest-first: the first report per phase
           is the final attempt. *)
        if Hashtbl.mem seen phase then None
        else begin
          Hashtbl.add seen phase ();
          if report.Plan.Executor.status = Plan.Executor.Converged then None
          else
            Some
              {
                Invariant.invariant = "plan-converged";
                at = Des.Sim.now sim;
                detail =
                  Printf.sprintf "%s: %s" phase (Plan.Executor.summary report);
              }
        end)
      !plan_reports
    |> List.rev
  in
  (* Acked-implies-durable: [submit] returning means the coordination
     service acked the enqueue, so every such id must carry a terminal
     transaction record at quiescence.  A missing record means the acked
     submission was lost (the post-crash coordination leader never had
     it); an id acked twice means a lost enqueue's sequence number was
     recycled.  Stock group commit releases acks only after batch quorum
     and stays clean; the unsafe-ack build acks at enqueue and loses the
     batch window's tail on a leader crash.  Skipped when not quiesced —
     such runs already carry the [quiescence] violation. *)
  let acked_durable_violations =
    if not quiesced then []
    else begin
      let now = Des.Sim.now sim in
      let seen = Hashtbl.create 64 in
      List.iter (fun (id, _) -> Hashtbl.replace seen id ()) !ops;
      List.concat_map
        (fun id ->
          let recycled =
            if Hashtbl.mem seen id then
              [
                {
                  Invariant.invariant = "acked-durable";
                  at = now;
                  detail =
                    Printf.sprintf
                      "txn id %d acked twice: a lost acked enqueue's \
                       sequence number was recycled"
                      id;
                };
              ]
            else begin
              Hashtbl.replace seen id ();
              []
            end
          in
          let lost =
            match Hashtbl.find_opt storm_states id with
            | Some state when Tropic.Txn.is_terminal state -> []
            | Some state ->
              [
                {
                  Invariant.invariant = "acked-durable";
                  at = now;
                  detail =
                    Printf.sprintf "acked txn %d still %s at quiescence" id
                      (Tropic.Txn.state_to_string state);
                };
              ]
            | None ->
              [
                {
                  Invariant.invariant = "acked-durable";
                  at = now;
                  detail =
                    Printf.sprintf
                      "acked txn %d has no transaction record at \
                       quiescence: the acked submission was lost"
                      id;
                };
              ]
          in
          recycled @ lost)
        (Nemesis.storm_txns nemesis)
    end
  in
  let horizon_violations =
    if quiesced then []
    else
      [
        {
          Invariant.invariant = "quiescence";
          at = Des.Sim.now sim;
          detail =
            Printf.sprintf "run still active at horizon %.0fs" config.horizon;
        };
      ]
  in
  let count state =
    List.fold_left
      (fun n (_, s) ->
        match (s, state) with
        | Some (Tropic.Txn.Committed), `C -> n + 1
        | Some (Tropic.Txn.Aborted _), `A -> n + 1
        | Some (Tropic.Txn.Failed _), `F -> n + 1
        | _ -> n)
      0 txns
  in
  {
    schedule = schedule.Schedule.name;
    seed;
    rbuild = config.build;
    committed = count `C;
    aborted = count `A;
    failed = count `F;
    injected = Nemesis.fired nemesis;
    stats =
      List.init (Tropic.Platform.shard_count platform)
        (Tropic.Platform.shard_stats platform);
    membership = Tropic.Platform.membership_stats platform;
    group = Tropic.Platform.group_commit_stats platform;
    violations =
      Invariant.tracker_violations tracker
      @ quiescence_violations @ crash_violations @ plan_violations
      @ acked_durable_violations @ horizon_violations @ trace_violations;
    trace = List.rev !trace_buf;
    span_dump = (if trace then Trace.to_normalized_lines tracer else []);
    duration = Des.Sim.now sim;
  }

(* ------------------------------------------------------------------ *)

type sweep = { runs : result list; violating : result list }

let sweep ?progress config ~schedules ~seeds =
  let n = List.length schedules in
  if n = 0 then invalid_arg "Runner.sweep: no schedules";
  let runs =
    List.mapi
      (fun i seed ->
        let schedule = List.nth schedules (i mod n) in
        let result = run_one config ~schedule ~seed in
        (match progress with Some f -> f result | None -> ());
        result)
      seeds
  in
  { runs; violating = List.filter (fun r -> r.violations <> []) runs }
