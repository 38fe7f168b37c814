type success = {
  new_tree : Data.Tree.t;
  log : Xlog.t;
  locks : (Data.Path.t * Mglock.mode) list;
  actions : int;
}

module Pmap = Map.Make (Data.Path)

let infer_locks env ~guard_locks ~tree ~reads ~writes =
  let write_locks = List.map (fun path -> (path, Mglock.W)) writes in
  let read_locks = List.map (fun path -> (path, Mglock.R)) reads in
  (* The constraint-ancestor rule: R on the outermost constrained node above
     each written object. *)
  let guards =
    if not guard_locks then []
    else
      List.filter_map
      (fun path ->
        match
          Constraints.highest_constrained_ancestor (Dsl.constraints_of env)
            tree path
        with
          | Some ancestor -> Some (ancestor, Mglock.R)
          | None -> None)
        writes
  in
  (* One entry per path at the joined mode, in path order: a path that
     several actions touch is listed once, as Mglock.requirements would
     join it anyway. *)
  List.fold_left
    (fun acc (path, mode) ->
      Pmap.update path
        (function None -> Some mode | Some m -> Some (Mglock.join m mode))
        acc)
    Pmap.empty
    (write_locks @ read_locks @ guards)
  |> Pmap.bindings

let simulate ?(guard_locks = true) env ~tree ~proc ~args =
  let ctx = Dsl.fresh_ctx env tree in
  match Dsl.run_proc env ctx ~proc ~args with
  | () ->
    let new_tree = Dsl.current_tree ctx in
    let locks =
      infer_locks env ~guard_locks ~tree:new_tree ~reads:(Dsl.reads_of ctx)
        ~writes:(Dsl.writes_of ctx)
    in
    Ok
      {
        new_tree;
        log = Dsl.log_of ctx;
        locks;
        actions = Dsl.action_count ctx;
      }
  | exception Dsl.Abort reason -> Error reason

let rollback env ~tree ~log =
  let rec undo_all tree = function
    | [] -> Ok tree
    | (record : Xlog.record) :: rest ->
      (match Dsl.apply_undo env tree record with
       | Ok tree' -> undo_all tree' rest
       | Error reason -> Error (record.Xlog.index, reason))
  in
  undo_all tree (List.rev log)
