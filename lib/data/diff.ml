type change =
  | Added of Path.t * Tree.node
  | Removed of Path.t
  | Kind_changed of Path.t * string * string
  | Attr_set of Path.t * string * Value.t option * Value.t
  | Attr_removed of Path.t * string * Value.t

let pp_change fmt = function
  | Added (p, node) -> Format.fprintf fmt "+ %a [%s]" Path.pp p node.Tree.kind
  | Removed p -> Format.fprintf fmt "- %a" Path.pp p
  | Kind_changed (p, old_kind, new_kind) ->
    Format.fprintf fmt "~ %a kind %s -> %s" Path.pp p old_kind new_kind
  | Attr_set (p, name, None, v) ->
    Format.fprintf fmt "~ %a +%s=%a" Path.pp p name Value.pp v
  | Attr_set (p, name, Some old_v, v) ->
    Format.fprintf fmt "~ %a %s: %a -> %a" Path.pp p name Value.pp old_v
      Value.pp v
  | Attr_removed (p, name, v) ->
    Format.fprintf fmt "~ %a -%s (was %a)" Path.pp p name Value.pp v

let change_to_string c = Format.asprintf "%a" pp_change c

(* The ordering contract (see diff.mli) is enforced structurally: attribute
   changes come from a merge of the two nodes' bindings, which {!Tree.attrs}
   lists in ascending name order, and child changes from a fold over an
   [Smap.merge] of the children, which [Smap.fold] visits in ascending name
   order.  The accumulator is built by prepending and reversed once at the
   end, so emission order is final order. *)
let diff ~old_tree ~new_tree =
  let rec attrs path olds news acc =
    match (olds, news) with
    | [], [] -> acc
    | (name, old_v) :: olds, [] ->
      attrs path olds [] (Attr_removed (path, name, old_v) :: acc)
    | [], (name, new_v) :: news ->
      attrs path [] news (Attr_set (path, name, None, new_v) :: acc)
    | (o, old_v) :: olds', (n, new_v) :: news' ->
      let c = String.compare o n in
      if c < 0 then attrs path olds' news (Attr_removed (path, o, old_v) :: acc)
      else if c > 0 then
        attrs path olds news' (Attr_set (path, n, None, new_v) :: acc)
      else if Value.equal old_v new_v then attrs path olds' news' acc
      else attrs path olds' news' (Attr_set (path, n, Some old_v, new_v) :: acc)
  in
  let rec go path (old_node : Tree.node) (new_node : Tree.node) acc =
    let acc =
      if String.equal old_node.Tree.kind new_node.Tree.kind then acc
      else Kind_changed (path, old_node.Tree.kind, new_node.Tree.kind) :: acc
    in
    let acc =
      if Tree.attrs_equal old_node new_node then acc
      else attrs path (Tree.attrs old_node) (Tree.attrs new_node) acc
    in
    let children =
      Tree.Smap.merge
        (fun _ o n -> Some (o, n))
        old_node.Tree.children new_node.Tree.children
    in
    Tree.Smap.fold
      (fun name pair acc ->
        let child_path = Path.child path name in
        match pair with
        | Some _, None -> Removed child_path :: acc
        | None, Some new_child -> Added (child_path, new_child) :: acc
        | Some old_child, Some new_child -> go child_path old_child new_child acc
        | None, None -> acc)
      children acc
  in
  List.rev (go Path.root old_tree new_tree [])

let apply tree = function
  | Added (p, node) ->
    (match Tree.insert tree p ~kind:node.Tree.kind () with
     | Error _ as e -> e
     | Ok t -> Tree.replace_subtree t p node)
  | Removed p -> Tree.remove tree p
  | Kind_changed (p, _, new_kind) -> Tree.set_kind tree p new_kind
  | Attr_set (p, name, _, v) -> Tree.set_attr tree p name v
  | Attr_removed (p, name, _) -> Tree.remove_attr tree p name

let patch tree changes =
  List.fold_left
    (fun tree change ->
      match tree with Error _ as e -> e | Ok t -> apply t change)
    (Ok tree) changes
