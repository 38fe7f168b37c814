(* Rolling-upgrade walkthrough for the goal-state frontend: a small
   single-hypervisor deployment with two stopped VMs pre-installed per
   host is driven through two declarative goals — drain host 0 while
   bringing the whole fleet online behind a tenant VLAN, then restore the
   original placement — each phase one [Plan.Executor.converge] call. *)

let default_seed = 11
let compute_hosts = 4
let vms_per_host = 2
let vlan_id = 100
let vlan_name = "tenants"

type result = {
  phases : (string * Plan.Executor.report) list;
  stats : Tropic.Stats.stats;
  todo : int;
  trace : Trace.t option;
}

let converged r =
  List.for_all
    (fun (_, report) -> report.Plan.Executor.status = Plan.Executor.Converged)
    r.phases

let total f r = List.fold_left (fun acc (_, rep) -> acc + f rep) 0 r.phases

(* ------------------------------------------------------------------ *)
(* The two goals *)

let prepop h i = Tcloud.Setup.prepop_vm_name ~host:h ~index:i

let vm name = { Plan.Model.vm_name = name; running = true; mem_mb = 1024 }

let all_vm_names =
  List.concat_map
    (fun h -> List.init vms_per_host (fun i -> prepop h i))
    (List.init compute_hosts (fun h -> h))

let tenant_switch =
  {
    Plan.Model.switch_index = 0;
    vlans = [ { Plan.Model.vlan_id; vlan_name; ports = all_vm_names } ];
  }

(* Phase 1: host 0 drained for maintenance — its VMs rehomed across the
   survivors — every VM running, and the tenant VLAN spanning the fleet. *)
let drained_goal =
  {
    Plan.Model.hosts =
      [
        { Plan.Model.host_index = 0; vms = [] };
        {
          Plan.Model.host_index = 1;
          vms = [ vm (prepop 1 0); vm (prepop 1 1); vm (prepop 0 0) ];
        };
        {
          Plan.Model.host_index = 2;
          vms = [ vm (prepop 2 0); vm (prepop 2 1); vm (prepop 0 1) ];
        };
        {
          Plan.Model.host_index = 3;
          vms = [ vm (prepop 3 0); vm (prepop 3 1) ];
        };
      ];
    switches = [ tenant_switch ];
  }

(* Phase 2: host 0 back in service — original placement, fleet still
   running, VLAN membership unchanged. *)
let restored_goal =
  {
    Plan.Model.hosts =
      List.init compute_hosts (fun h ->
          {
            Plan.Model.host_index = h;
            vms = List.init vms_per_host (fun i -> vm (prepop h i));
          });
    switches = [ tenant_switch ];
  }

let builtin_phases = [ "drain-host0", drained_goal; "restore", restored_goal ]

(* ------------------------------------------------------------------ *)

let run ?(seed = default_seed) ?(quick = false) ?(record_trace = false)
    ?goal () =
  let sim = Des.Sim.create ~seed () in
  let tracer = if record_trace then Some (Trace.create ~sim ()) else None in
  let size =
    {
      Tcloud.Setup.small with
      Tcloud.Setup.compute_hosts;
      hypervisors = [ "xen" ];
      storage_capacity_mb = 5_000_000;
      prepopulated_vms_per_host = vms_per_host;
      prepop_vm_mem_mb = 1024;
    }
  in
  let inv =
    Tcloud.Setup.build
      ~timing:(if quick then `Instant else `Process)
      ~rng:(Des.Sim.rng sim) size
  in
  let platform =
    Tropic.Platform.create
      {
        Tropic.Platform.default_spec with
        Tropic.Platform.mode =
          (if quick then Tropic.Platform.Logical_only 0.01
           else Tropic.Platform.Full);
        workers = 4;
        controller_config = Tcloud.Setup.controller_config;
        controller_session_timeout = 5.0;
        trace = tracer;
      }
      inv.Tcloud.Setup.env ~initial_tree:inv.Tcloud.Setup.tree
      ~devices:inv.Tcloud.Setup.devices sim
  in
  let ctx =
    {
      Plan.Planner.storage_hosts = size.Tcloud.Setup.storage_hosts;
      template = "base.img";
    }
  in
  let phases =
    match goal with
    | Some model -> [ "goal", model ]
    | None -> builtin_phases
  in
  let reports = ref [] in
  Common.run_scenario platform (fun () ->
      List.iter
        (fun (name, model) ->
          let report = Plan.Executor.converge platform ctx ~model in
          reports := (name, report) :: !reports)
        phases);
  {
    phases = List.rev !reports;
    stats = Tropic.Platform.shard_stats platform 0;
    todo =
      Option.fold ~none:0 ~some:Tropic.Controller.todo_length
        (Tropic.Platform.leader_controller platform);
    trace = tracer;
  }

(* ------------------------------------------------------------------ *)

let print r =
  Common.section "Goal-state convergence: rolling upgrade";
  List.iter
    (fun (name, report) ->
      Printf.printf "phase %-14s %s\n" name (Plan.Executor.summary report);
      List.iter
        (fun ex ->
          Printf.printf "  round %d  %-52s -> %s\n" ex.Plan.Executor.ex_round
            (Plan.Planner.step_to_string ex.Plan.Executor.ex_step)
            (Plan.Executor.outcome_to_string ex.Plan.Executor.ex_outcome))
        report.Plan.Executor.history;
      List.iter
        (fun reason -> Printf.printf "  UNPLANNABLE: %s\n" reason)
        report.Plan.Executor.unplannable;
      List.iter
        (fun change ->
          Printf.printf "  RESIDUAL: %s\n" (Data.Diff.change_to_string change))
        report.Plan.Executor.residual)
    r.phases;
  Printf.printf
    "plan steps: committed=%d shed=%d aborted=%d skipped=%d rounds=%d\n"
    (total Plan.Executor.steps_committed r)
    (total Plan.Executor.steps_shed r)
    (total Plan.Executor.steps_aborted r)
    (total Plan.Executor.steps_skipped r)
    (total (fun rep -> rep.Plan.Executor.rounds) r);
  let s = r.stats in
  Printf.printf
    "controller: committed=%d aborted=%d failed=%d sheds=%d todo=%d\n%!"
    s.Tropic.Controller.committed s.Tropic.Controller.aborted
    s.Tropic.Controller.failed s.Tropic.Controller.sheds r.todo
