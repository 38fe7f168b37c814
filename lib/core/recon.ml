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
