let log_src = Logs.Src.create "tropic.recon" ~doc:"TROPIC reconciliation"

module Log = (val Logs.src_log log_src : Logs.LOG)

type rule = {
  rule_kind : string;
  rule_attr : string;
  make_action :
    node_name:string ->
    target:Data.Value.t ->
    (string * Data.Value.t list) option;
}

type step = {
  at : Data.Path.t;
  action : string;
  args : Data.Value.t list;
}

let pp_step fmt s =
  Format.fprintf fmt "%a: %s(%s)" Data.Path.pp s.at s.action
    (String.concat ", " (List.map Data.Value.to_string s.args))

type plan = {
  steps : step list;
  unrepaired : Data.Diff.change list;
}

let find_rule rules ~kind ~attr =
  List.find_opt
    (fun rule ->
      String.equal rule.rule_kind kind && String.equal rule.rule_attr attr)
    rules

let plan_repair ~rules ~at ~logical ~physical =
  (* Diff physical (old) against logical (new): the changes are exactly what
     must be applied to the device. *)
  let changes =
    Data.Diff.diff ~old_tree:physical ~new_tree:logical
  in
  let steps, unrepaired =
    List.fold_left
      (fun (steps, unrepaired) change ->
        match change with
        | Data.Diff.Attr_set (rel_path, attr, _old, target) ->
          let full_path = Data.Path.append at rel_path in
          let kind =
            Option.map
              (fun (node : Data.Tree.node) -> node.Data.Tree.kind)
              (Data.Tree.find logical rel_path)
          in
          (match kind with
           | None -> (steps, change :: unrepaired)
           | Some kind ->
             (match find_rule rules ~kind ~attr with
              | None -> (steps, change :: unrepaired)
              | Some rule ->
                let node_name =
                  Option.value (Data.Path.basename full_path) ~default:""
                in
                (match rule.make_action ~node_name ~target with
                 | None -> (steps, change :: unrepaired)
                 | Some (action, args) ->
                   let parent =
                     Option.value (Data.Path.parent full_path) ~default:at
                   in
                   ({ at = parent; action; args } :: steps, unrepaired))))
        | Data.Diff.Added _ | Data.Diff.Removed _
        | Data.Diff.Kind_changed _ | Data.Diff.Attr_removed _ ->
          (steps, change :: unrepaired))
      ([], []) changes
  in
  { steps = List.rev steps; unrepaired = List.rev unrepaired }

type drift =
  | Same
  | Missing of Data.Tree.error
  | Differs of plan

let drift ~rules tree device =
  let at = Devices.Device.root device in
  match Data.Tree.subtree tree at with
  | Error e -> Missing e
  | Ok logical ->
    let physical = Devices.Device.export device in
    if Data.Tree.equal logical physical then Same
    else Differs (plan_repair ~rules ~at ~logical ~physical)

let execute ~sim ~deadline device plan =
  let counters = Physical.fresh_counters () in
  let run step () =
    Physical.invoke_deadline ~sim ~deadline ~counters ~action:step.action
      (fun () -> Devices.Device.invoke device ~action:step.action ~args:step.args)
    |> Result.map_error (fun err -> (step, err))
  in
  List.fold_left (fun so_far step -> Result.bind so_far (run step)) (Ok ())
    plan.steps

let adopt constraints tree device =
  let root = Devices.Device.root device in
  match Data.Tree.replace_subtree tree root (Devices.Device.export device) with
  | Error e -> Error (`Missing e)
  | Ok candidate ->
    (match Constraints.check_path constraints candidate root with
     | violation :: _ -> Error (`Violates violation)
     | [] -> Ok candidate)

module Quarantine = struct
  module Paths = Set.Make (Data.Path)

  type t = { shard : Shard.t; mutable paths : Paths.t }

  let create shard = { shard; paths = Paths.empty }

  let add q paths =
    List.iter (fun p -> if Shard.owns q.shard p then q.paths <- Paths.add p q.paths) paths

  let clear q root =
    q.paths <- Paths.filter (fun p -> not (Data.Path.is_prefix root p)) q.paths

  let covers q path =
    (not (Paths.is_empty q.paths))
    && List.exists (fun p -> Paths.mem p q.paths) (path :: Data.Path.ancestors path)

  let to_list q = Paths.elements q.paths
end

type t = {
  name : string;
  shard : Shard.t;
  sim : Des.Sim.t;
  rules : rule list;
  deadline : float option;
  constraints : Constraints.registry;
  devices : Physical.device_lookup;
  quarantine : Quarantine.t;
  mutable next_owner : int; (* negative lock owners for reload *)
}

let create ~name ~shard ~sim ~rules ~deadline ~constraints ~devices =
  {
    name;
    shard;
    sim;
    rules;
    deadline;
    constraints;
    devices;
    quarantine = Quarantine.create shard;
    next_owner = -1;
  }

let quarantine r = r.quarantine

let reload r ~locks ~sched tree path =
  match r.devices path with
  | None ->
    Log.err (fun m -> m "%s: reload: no device at %a" r.name Data.Path.pp path);
    tree
  | Some device ->
    let root = Devices.Device.root device in
    let owner = r.next_owner in
    r.next_owner <- owner - 1;
    (match Mglock.try_acquire locks ~txn:owner [ (root, Mglock.W) ] with
     | Error _ ->
       Log.info (fun m ->
           m "%s: reload of %a deferred (locked)" r.name Data.Path.pp root);
       tree
     | Ok () ->
       let adopted = adopt r.constraints tree device in
       Sched.wake sched (Mglock.release_all locks ~txn:owner);
       (match adopted with
        | Ok tree ->
          Quarantine.clear r.quarantine root;
          tree
        | Error (`Missing e) ->
          Log.err (fun m ->
              m "%s: reload of %a failed: %s" r.name Data.Path.pp root
                (Data.Tree.error_to_string e));
          tree
        | Error (`Violates violation) ->
          Log.info (fun m ->
              m "%s: reload of %a aborted: %a" r.name Data.Path.pp root
                Constraints.pp_violation violation);
          tree))

let repair r tree path =
  if not (Shard.owns r.shard path) then
    Log.err (fun m ->
        m "%s: repair of %a refused: foreign shard's subtree" r.name
          Data.Path.pp path)
  else
    match r.devices path with
    | None ->
      Log.err (fun m -> m "%s: repair: no device at %a" r.name Data.Path.pp path)
    | Some device ->
      let root = Devices.Device.root device in
      (match drift ~rules:r.rules tree device with
       | Missing e ->
         Log.err (fun m ->
             m "%s: repair of %a: %s" r.name Data.Path.pp root
               (Data.Tree.error_to_string e))
       | Same -> Quarantine.clear r.quarantine root
       | Differs plan ->
         (* Steps run under the workers' per-action deadline, so the main
            loop never hangs on a device; a failed step leaves the subtree
            quarantined for the next sweep. *)
         (match execute ~sim:r.sim ~deadline:r.deadline device plan with
          | Ok () when plan.unrepaired = [] -> Quarantine.clear r.quarantine root
          | result ->
            Result.iter_error
              (fun (step, err) ->
                Log.err (fun m ->
                    m "%s: repair step %a failed: %s" r.name pp_step step
                      (Devices.Device.error_to_string err)))
              result;
            Log.info (fun m ->
                m "%s: repair of %a incomplete (%d unrepaired diffs)" r.name
                  Data.Path.pp root
                  (List.length plan.unrepaired))))

let sweep r ~locks tree =
  let diverged root =
    match r.devices root with
    | None -> false
    | Some device ->
      (match drift ~rules:r.rules tree device with
       | Differs _ -> true
       | Same | Missing _ -> false)
  in
  let quarantined =
    List.filter_map r.devices (Quarantine.to_list r.quarantine)
    |> List.map Devices.Device.root
  in
  (* Only owned subtrees: the copies this shard keeps of foreign subtrees
     go stale the moment the owner commits a single-shard transaction
     there, and "repairing" a foreign device against a stale copy would
     undo the owner's committed work.  Nor subtrees with transactions
     physically in flight: a transient mismatch there is work in
     progress, not drift. *)
  let drifted =
    List.filter
      (fun root -> Mglock.holders locks root = [] && diverged root)
      (Shard.roots_of r.shard r.shard.Shard.sid)
  in
  List.sort_uniq Data.Path.compare (quarantined @ drifted)
