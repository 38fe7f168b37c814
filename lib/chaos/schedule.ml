type target = Leader | Random

type action =
  | Crash_controller of { target : target; down_for : float }
  | Crash_coord_replica of { target : target; down_for : float }
  | Partition_coord_leader of { heal_after : float }
  | Fault_burst of { probability : float; lasting : float }
  | Fail_next_device_action of string
  | Hang_next_device_action of string
  | Crash_worker of { down_for : float }
  | Power_cycle_host
  | Oob_stop_vm
  | Oob_remove_vm
  | Signal_txn of { signal : [ `Term | `Kill ]; stall : float }
  | Flap_device of { host : int; up_for : float; down_for : float; cycles : int }
  | Request_storm of { count : int; gap : float }
  | Crash_shard_leader of { shard : int; down_for : float }
  | Member_churn of { delay : float; gap : float }
      (* remove a random non-leader coord replica and re-add a fresh
         instance at the same node id, with [delay] seconds of extra
         network latency on that node so the old incarnation's append
         replies are still in flight across the remove/re-add; the delay
         clears after [gap] seconds *)

type trigger =
  | At of float
  | Every of { start : float; period : float; until : float }
  | Random_window of { start : float; until : float; count : int }

type step = { trigger : trigger; action : action }

type workload = Chains | Converge | Migrate

type t = {
  name : string;
  workload : workload;
  shards : int;
  steps : step list;
}

let at time action = { trigger = At time; action }

let every ?(start = 0.) ~period ~until action =
  { trigger = Every { start; period; until }; action }

let random_window ~start ~until ~count action =
  { trigger = Random_window { start; until; count }; action }

let target_to_string = function Leader -> "leader" | Random -> "random"

let action_to_string = function
  | Crash_controller { target; down_for } ->
    Printf.sprintf "crash-controller(%s, down %.0fs)" (target_to_string target)
      down_for
  | Crash_coord_replica { target; down_for } ->
    Printf.sprintf "crash-coord-replica(%s, down %.0fs)"
      (target_to_string target) down_for
  | Partition_coord_leader { heal_after } ->
    Printf.sprintf "partition-coord-leader(heal after %.0fs)" heal_after
  | Fault_burst { probability; lasting } ->
    Printf.sprintf "fault-burst(p=%.2f, %.0fs)" probability lasting
  | Fail_next_device_action a -> Printf.sprintf "fail-next(%s)" a
  | Hang_next_device_action a -> Printf.sprintf "hang-next(%s)" a
  | Crash_worker { down_for } ->
    Printf.sprintf "crash-worker(down %.0fs)" down_for
  | Power_cycle_host -> "power-cycle-host"
  | Oob_stop_vm -> "oob-stop-vm"
  | Oob_remove_vm -> "oob-remove-vm"
  | Signal_txn { signal; stall } ->
    Printf.sprintf "signal(%s after %.1fs stall)"
      (match signal with `Term -> "TERM" | `Kill -> "KILL")
      stall
  | Flap_device { host; up_for; down_for; cycles } ->
    Printf.sprintf "flap-device(host%d, %d cycles of %.0fs up / %.0fs down)"
      host cycles up_for down_for
  | Request_storm { count; gap } ->
    Printf.sprintf "request-storm(%d spawns, %.2fs gap)" count gap
  | Crash_shard_leader { shard; down_for } ->
    Printf.sprintf "crash-shard-leader(shard %d, down %.0fs)" shard down_for
  | Member_churn { delay; gap } ->
    Printf.sprintf "member-churn(delay %.1fs, clear after %.0fs)" delay gap

let step_end { trigger; action } =
  let trigger_end =
    match trigger with
    | At time -> time
    | Every { until; _ } -> until
    | Random_window { until; _ } -> until
  in
  let action_tail =
    match action with
    | Crash_controller { down_for; _ }
    | Crash_coord_replica { down_for; _ }
    | Crash_shard_leader { down_for; _ } ->
      down_for
    | Partition_coord_leader { heal_after } -> heal_after
    | Fault_burst { lasting; _ } -> lasting
    | Signal_txn { stall; _ } -> stall
    | Crash_worker { down_for } -> down_for
    | Flap_device { up_for; down_for; cycles; _ } ->
      float_of_int cycles *. (up_for +. down_for)
    | Request_storm { count; gap } -> float_of_int count *. gap
    | Member_churn { gap; _ } -> gap +. 8.
    | Fail_next_device_action _ | Hang_next_device_action _ | Power_cycle_host
    | Oob_stop_vm | Oob_remove_vm ->
      0.
  in
  trigger_end +. action_tail

let end_time t = List.fold_left (fun acc s -> Float.max acc (step_end s)) 0. t.steps

let describe t =
  String.concat "\n"
    (Printf.sprintf "schedule %s:" t.name
     :: List.map
          (fun { trigger; action } ->
            let when_ =
              match trigger with
              | At time -> Printf.sprintf "at %.0fs" time
              | Every { start; period; until } ->
                Printf.sprintf "every %.0fs in [%.0f, %.0f]" period start until
              | Random_window { start; until; count } ->
                Printf.sprintf "%d at random in [%.0f, %.0f]" count start until
            in
            Printf.sprintf "  %-28s %s" when_ (action_to_string action))
          t.steps)

(* ------------------------------------------------------------------ *)
(* Presets.  Windows assume the runner's default workload: submissions
   start after ~5 s (elections settle) and stretch over ~60–120 s. *)

let controller_crashes =
  {
    name = "controller-crashes";
    workload = Chains;
    shards = 1;
    steps =
      [
        every ~start:15. ~period:35. ~until:120.
          (Crash_controller { target = Leader; down_for = 12. });
        random_window ~start:20. ~until:110. ~count:2
          (Crash_controller { target = Random; down_for = 8. });
      ];
  }

let coord_faults =
  {
    name = "coord-faults";
    workload = Chains;
    shards = 1;
    steps =
      [
        every ~start:12. ~period:40. ~until:110.
          (Crash_coord_replica { target = Random; down_for = 10. });
        at 30. (Partition_coord_leader { heal_after = 8. });
        at 75. (Partition_coord_leader { heal_after = 6. });
      ];
  }

let device_storm =
  {
    name = "device-storm";
    workload = Chains;
    shards = 1;
    steps =
      [
        at 10. (Fault_burst { probability = 0.05; lasting = 25. });
        random_window ~start:15. ~until:100. ~count:3
          (Fail_next_device_action "startVM");
        random_window ~start:25. ~until:100. ~count:2 Power_cycle_host;
        random_window ~start:30. ~until:105. ~count:3 Oob_stop_vm;
        random_window ~start:40. ~until:105. ~count:2 Oob_remove_vm;
      ];
  }

let signal_storm =
  {
    name = "signal-storm";
    workload = Chains;
    shards = 1;
    steps =
      [
        random_window ~start:8. ~until:100. ~count:4
          (Signal_txn { signal = `Term; stall = 0.5 });
        random_window ~start:12. ~until:100. ~count:3
          (Signal_txn { signal = `Kill; stall = 0.2 });
      ];
  }

(* Leader crashes timed to land while conflicting transactions sit in the
   scheduler's blocked table (the hot host keeps it populated from ~8 s
   on): recovery must re-derive the blocked set from persisted txn
   records — no transaction lost, none woken twice. *)
let blocked_crash =
  {
    name = "blocked-crash";
    workload = Chains;
    shards = 1;
    steps =
      [
        at 16. (Crash_controller { target = Leader; down_for = 8. });
        at 30. (Crash_controller { target = Leader; down_for = 8. });
        random_window ~start:45. ~until:80. ~count:1
          (Crash_controller { target = Leader; down_for = 6. });
      ];
  }

let mixed =
  {
    name = "mixed";
    workload = Chains;
    shards = 1;
    steps =
      [
        at 18. (Crash_controller { target = Leader; down_for = 10. });
        at 55. (Crash_coord_replica { target = Random; down_for = 10. });
        at 35. (Fault_burst { probability = 0.04; lasting = 15. });
        random_window ~start:20. ~until:100. ~count:2 Oob_stop_vm;
        random_window ~start:25. ~until:100. ~count:2
          (Signal_txn { signal = `Term; stall = 0.3 });
        random_window ~start:30. ~until:95. ~count:1 Power_cycle_host;
      ];
  }

(* The robustness gauntlet: hangs on the slow actions, transient-error
   bursts, and worker crashes mid-execution.  With retries + per-action
   deadlines + the watchdog every seed must quiesce cleanly; without them
   (the no-watchdog build) hung/abandoned transactions hold their locks
   forever.  Appended last so preset indices stay stable. *)
let hang_storm =
  {
    name = "hang-storm";
    workload = Chains;
    shards = 1;
    steps =
      [
        random_window ~start:10. ~until:90. ~count:3
          (Hang_next_device_action "startVM");
        random_window ~start:15. ~until:95. ~count:2
          (Hang_next_device_action "cloneImage");
        at 20. (Fault_burst { probability = 0.08; lasting = 20. });
        at 60. (Fault_burst { probability = 0.05; lasting = 15. });
        random_window ~start:25. ~until:85. ~count:2
          (Crash_worker { down_for = 15. });
      ];
  }

(* The overload gauntlet: the workload's hot host flaps between dead and
   healthy on a short period while a fire-and-forget request storm floods
   the controller.  With health scoring + breakers the flapping subtree is
   fenced off at admission and the watermarks shed the excess, so the
   pending queue stays bounded; the no-breaker build lets the storm pile
   up behind the flap-wedged transactions on the hot host and the
   bounded-queue invariant convicts it.  Appended last so preset indices stay stable. *)
let flap_storm =
  {
    name = "flap-storm";
    workload = Chains;
    shards = 1;
    steps =
      [
        at 10.
          (Flap_device { host = 0; up_for = 6.; down_for = 6.; cycles = 8 });
        at 18. (Request_storm { count = 90; gap = 0.08 });
      ];
  }

(* The goal-state gauntlet: the converge workload drives the planner's
   hardest shape (a VM swap between two full hosts, resolved through a
   staging hop) while the leader and a worker crash mid-plan.  The
   executor must resume after fail-over and still converge exactly — no
   VM duplicated, lost, or left on the wrong host.  The no-plan-deps
   build compiles plans with every dependency edge dropped, so the swap's
   migrations race into full hosts and livelock: the plan-converged and
   exactly-once invariants convict it.  Appended last so preset indices
   stay stable. *)
let plan_crash =
  {
    name = "plan-crash";
    workload = Converge;
    shards = 1;
    steps =
      [
        at 12. (Crash_controller { target = Leader; down_for = 8. });
        at 24. (Crash_worker { down_for = 10. });
        random_window ~start:35. ~until:70. ~count:1
          (Crash_controller { target = Leader; down_for = 6. });
      ];
  }

(* The sharding gauntlet: a two-shard platform under the migrate workload
   (every chain's migrations are cross-shard, so 2PC runs continuously)
   while shard leaders crash mid-wave.  Shard 0 coordinates every
   cross-shard transaction here (the coordinator is the lowest touched
   shard), so its crashes land between prepare and decision and recovery
   must resume each in-doubt transaction to the durably decided outcome;
   shard 1's crash exercises the participant side (vote lost, re-prepare,
   presumed abort).  The no-2pc build skips the decision record, so a
   crashed coordinator presumes abort on transactions whose commit
   already reached the other shard — the exactly-once and convergence
   invariants convict it.  Appended last so preset indices stay stable. *)
let shard_crash =
  {
    name = "shard-crash";
    workload = Migrate;
    shards = 2;
    steps =
      [
        at 14. (Crash_shard_leader { shard = 0; down_for = 8. });
        at 32. (Crash_shard_leader { shard = 1; down_for = 8. });
        (* Lock serialization pushes the bulk of the cross-shard traffic
           into the 50–170 s range, so the coordinator crashes spread over
           that window to land inside prepare→finish gaps. *)
        random_window ~start:50. ~until:160. ~count:3
          (Crash_shard_leader { shard = 0; down_for = 6. });
        random_window ~start:90. ~until:150. ~count:1
          (Crash_shard_leader { shard = 1; down_for = 6. });
      ];
  }

(* The membership gauntlet: coord replicas leave and rejoin while crash
   and partition faults run — removal, a delayed-message window, and the
   re-add all land inside one leader term.  The delayed node keeps the old
   incarnation's append replies in flight across the remove/re-add; with
   replication session ids the leader drops them as stale, so the fresh
   learner's progress stays honest.  The no-session-id build accepts them:
   the leader then believes the wiped replica holds entries it never
   received, and the progress-integrity invariant convicts it (or, if the
   phantom acks reach quorum, lost-commit does).  Appended last so preset
   indices stay stable. *)
let member_churn =
  {
    name = "member-churn";
    workload = Chains;
    shards = 1;
    steps =
      [
        every ~start:12. ~period:25. ~until:100.
          (Member_churn { delay = 1.0; gap = 4.0 });
        (* Offset from the churn windows (12–16.5, 37–41.5, 62–66.5,
           87–91.5): overlapping faults skip rather than stack. *)
        at 45. (Crash_coord_replica { target = Random; down_for = 8. });
        at 70. (Partition_coord_leader { heal_after = 6. });
      ];
  }

(* The durability gauntlet for group commit: an open-loop request storm
   keeps the coordination leader's append batcher full while
   leader-targeted replica crashes land inside the batch windows — the
   gap between an enqueue's ack and its batch reaching quorum is exactly
   where an early ack loses the request.  Stock group commit releases
   acks only after batch quorum, so every acked submission survives into
   the new term and the run stays clean; the unsafe-ack build acks at
   enqueue time and the acked-durable invariant convicts it (a lost
   acked submission has no transaction record at quiescence, or its
   recycled id collides with a later one).  The storm fires after the
   chain workload's submission wave so lost sequence numbers stay
   visibly unfilled.  Appended last so preset indices stay stable. *)
let commit_storm =
  {
    name = "commit-storm";
    workload = Chains;
    shards = 1;
    steps =
      [
        at 40. (Request_storm { count = 60; gap = 0.05 });
        every ~start:40.3 ~period:2.5 ~until:48.
          (Crash_coord_replica { target = Leader; down_for = 2. });
      ];
  }

let presets =
  [
    controller_crashes;
    coord_faults;
    device_storm;
    signal_storm;
    blocked_crash;
    mixed;
    hang_storm;
    flap_storm;
    plan_crash;
    shard_crash;
    member_churn;
    commit_storm;
  ]

let find name = List.find_opt (fun s -> s.name = name) presets
