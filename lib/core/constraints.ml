type violation = {
  constraint_name : string;
  at : Data.Path.t;
  message : string;
}

let pp_violation fmt v =
  Format.fprintf fmt "constraint %s violated at %a: %s" v.constraint_name
    Data.Path.pp v.at v.message

type t = {
  name : string;
  kind : string;
  check :
    Data.Tree.t -> Data.Path.t -> Data.Tree.node -> (unit, string) result;
}

type registry = { by_kind : (string, t list) Hashtbl.t }

let create () = { by_kind = Hashtbl.create 8 }

let register reg c =
  let existing = Option.value (Hashtbl.find_opt reg.by_kind c.kind) ~default:[] in
  Hashtbl.replace reg.by_kind c.kind (existing @ [ c ])

let constrained_kind reg kind = Hashtbl.mem reg.by_kind kind

(* Ancestor-or-self paths, outermost (root) first. *)
let spine path = List.rev (Data.Path.ancestors path) @ [ path ]

let check_node reg tree node_path (node : Data.Tree.node) =
  match Hashtbl.find_opt reg.by_kind node.Data.Tree.kind with
  | None -> []
  | Some constraints ->
    List.filter_map
      (fun c ->
        match c.check tree node_path node with
        | Ok () -> None
        | Error message ->
          Some { constraint_name = c.name; at = node_path; message })
      constraints

let check_path reg tree path =
  (* Ancestors-or-self first (outermost in), then the touched subtree, so
     constraints on entities below the touched object are enforced too. *)
  let spine_violations =
    List.concat_map
      (fun node_path ->
        match Data.Tree.find tree node_path with
        | None -> []
        | Some node -> check_node reg tree node_path node)
      (spine path)
  in
  let subtree_violations =
    match Data.Tree.find tree path with
    | None -> []
    | Some root ->
      let rec walk node_path (node : Data.Tree.node) acc =
        let acc =
          if Data.Path.equal node_path path then acc (* already on the spine *)
          else acc @ check_node reg tree node_path node
        in
        Data.Tree.Smap.fold
          (fun name child acc ->
            walk (Data.Path.child node_path name) child acc)
          node.Data.Tree.children acc
      in
      walk path root []
  in
  spine_violations @ subtree_violations

let highest_constrained_ancestor reg tree path =
  List.find_opt
    (fun node_path ->
      match Data.Tree.find tree node_path with
      | None -> false
      | Some node -> constrained_kind reg node.Data.Tree.kind)
    (spine path)
