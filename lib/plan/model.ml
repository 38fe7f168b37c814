module Schema = Devices.Schema
module Value = Data.Value
module Tree = Data.Tree
module Path = Data.Path
module Sexp = Data.Sexp

type vm_goal = { vm_name : string; running : bool; mem_mb : int }
type host_goal = { host_index : int; vms : vm_goal list }
type vlan_goal = { vlan_id : int; vlan_name : string; ports : string list }
type switch_goal = { switch_index : int; vlans : vlan_goal list }
type t = { hosts : host_goal list; switches : switch_goal list }

let ( let* ) = Result.bind

let host_path g = Tcloud.Setup.compute_path g.host_index
let switch_path g = Tcloud.Setup.switch_path g.switch_index
let vlan_node_name id = Printf.sprintf "vlan%04d" id

(* ------------------------------------------------------------------ *)
(* Codec *)

let vm_to_sexp v =
  Sexp.List
    [
      Sexp.atom "vm"; Sexp.atom v.vm_name;
      Sexp.atom (if v.running then Schema.state_running else Schema.state_stopped);
      Sexp.of_int v.mem_mb;
    ]

let host_to_sexp h =
  Sexp.List
    (Sexp.atom "host" :: Sexp.of_int h.host_index :: List.map vm_to_sexp h.vms)

let vlan_to_sexp v =
  Sexp.List
    (Sexp.atom "vlan" :: Sexp.of_int v.vlan_id :: Sexp.atom v.vlan_name
    :: List.map (fun p -> Sexp.List [ Sexp.atom "port"; Sexp.atom p ]) v.ports)

let switch_to_sexp s =
  Sexp.List
    (Sexp.atom "switch" :: Sexp.of_int s.switch_index
    :: List.map vlan_to_sexp s.vlans)

let to_sexp t =
  Sexp.List
    (Sexp.atom "goal"
    :: (List.map host_to_sexp t.hosts @ List.map switch_to_sexp t.switches))

let to_string t = Sexp.to_string (to_sexp t)

let parse_vm = function
  | Sexp.List [ Sexp.Atom "vm"; Sexp.Atom name; Sexp.Atom state; mem ] ->
    let* mem_mb = Sexp.to_int mem in
    let* running =
      if String.equal state Schema.state_running then Ok true
      else if String.equal state Schema.state_stopped then Ok false
      else Error (Printf.sprintf "vm %s: unknown state %S" name state)
    in
    Ok { vm_name = name; running; mem_mb }
  | s -> Error ("malformed vm entry: " ^ Sexp.to_string s)

let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
    let* v = f x in
    let* vs = collect f rest in
    Ok (v :: vs)

let parse_port = function
  | Sexp.List [ Sexp.Atom "port"; Sexp.Atom vm ] -> Ok vm
  | s -> Error ("malformed port entry: " ^ Sexp.to_string s)

let parse_vlan = function
  | Sexp.List (Sexp.Atom "vlan" :: id :: Sexp.Atom name :: ports) ->
    let* vlan_id = Sexp.to_int id in
    let* ports = collect parse_port ports in
    Ok { vlan_id; vlan_name = name; ports }
  | s -> Error ("malformed vlan entry: " ^ Sexp.to_string s)

let parse_entry t = function
  | Sexp.List (Sexp.Atom "host" :: idx :: vms) ->
    let* host_index = Sexp.to_int idx in
    let* vms = collect parse_vm vms in
    Ok { t with hosts = { host_index; vms } :: t.hosts }
  | Sexp.List (Sexp.Atom "switch" :: idx :: vlans) ->
    let* switch_index = Sexp.to_int idx in
    let* vlans = collect parse_vlan vlans in
    Ok { t with switches = { switch_index; vlans } :: t.switches }
  | s -> Error ("malformed goal entry: " ^ Sexp.to_string s)

let of_sexp = function
  | Sexp.List (Sexp.Atom "goal" :: entries) ->
    let* t =
      List.fold_left
        (fun acc entry ->
          let* t = acc in
          parse_entry t entry)
        (Ok { hosts = []; switches = [] })
        entries
    in
    let dup_check what ids =
      let sorted = List.sort compare ids in
      let rec dup = function
        | a :: (b :: _ as rest) ->
          if a = b then Some a else dup rest
        | _ -> None
      in
      match dup sorted with
      | Some i -> Error (Printf.sprintf "duplicate %s %d in goal" what i)
      | None -> Ok ()
    in
    let* () = dup_check "host" (List.map (fun h -> h.host_index) t.hosts) in
    let* () =
      dup_check "switch" (List.map (fun s -> s.switch_index) t.switches)
    in
    let vm_names =
      List.concat_map (fun h -> List.map (fun v -> v.vm_name) h.vms) t.hosts
    in
    let sorted = List.sort String.compare vm_names in
    let rec dup = function
      | a :: (b :: _ as rest) ->
        if String.equal a b then Some a else dup rest
      | _ -> None
    in
    (match dup sorted with
     | Some name ->
       Error (Printf.sprintf "vm %s appears on more than one host" name)
     | None ->
       Ok { hosts = List.rev t.hosts; switches = List.rev t.switches })
  | s -> Error ("expected (goal ...), got: " ^ Sexp.to_string s)

let of_string s =
  let* sexp = Sexp.of_string s in
  of_sexp sexp

(* ------------------------------------------------------------------ *)
(* Projection: both layers restricted to the managed schema, so the diff
   lists exactly the actionable drift and nothing else. *)

let vm_node ~running ~mem_mb =
  Tree.make_node ~kind:Schema.vm_kind
    ~attrs:
      [
        ( Schema.attr_state,
          Value.Str
            (if running then Schema.state_running else Schema.state_stopped) );
        Schema.attr_mem_mb, Value.Int mem_mb;
      ]
    ()

let project_host_node (node : Tree.node) =
  let children =
    Tree.Smap.fold
      (fun name (child : Tree.node) acc ->
        if String.equal child.Tree.kind Schema.vm_kind then
          let keep attr =
            match Tree.attr child attr with
            | Some v -> [ attr, v ]
            | None -> []
          in
          ( name,
            Tree.make_node ~kind:Schema.vm_kind
              ~attrs:(keep Schema.attr_mem_mb @ keep Schema.attr_state)
              () )
          :: acc
        else acc)
      node.Tree.children []
  in
  Tree.make_node ~kind:Schema.vm_host_kind ~children ()

let desired_host_node h =
  Tree.make_node ~kind:Schema.vm_host_kind
    ~children:
      (List.map
         (fun v -> v.vm_name, vm_node ~running:v.running ~mem_mb:v.mem_mb)
         h.vms)
    ()

let project_vlan_node (node : Tree.node) =
  let keep attr =
    match Tree.attr node attr with
    | Some v -> [ attr, v ]
    | None -> []
  in
  Tree.make_node ~kind:Schema.vlan_kind
    ~attrs:(keep Schema.attr_vlan_name @ keep Schema.attr_ports)
    ()

let project_switch_node (node : Tree.node) =
  let children =
    Tree.Smap.fold
      (fun name (child : Tree.node) acc ->
        if String.equal child.Tree.kind Schema.vlan_kind then
          (name, project_vlan_node child) :: acc
        else acc)
      node.Tree.children []
  in
  Tree.make_node ~kind:Schema.switch_kind ~children ()

let desired_vlan_node v =
  let ports =
    List.sort String.compare (List.map Tcloud.Procs.vm_port v.ports)
  in
  Tree.make_node ~kind:Schema.vlan_kind
    ~attrs:
      [
        Schema.attr_vlan_name, Value.Str v.vlan_name;
        Schema.attr_ports, Value.List (List.map (fun p -> Value.Str p) ports);
      ]
    ()

let desired_switch_node s =
  Tree.make_node ~kind:Schema.switch_kind
    ~children:(List.map (fun v -> vlan_node_name v.vlan_id, desired_vlan_node v) s.vlans)
    ()

let tree_err = function
  | Ok t -> Ok t
  | Error e -> Error (Tree.error_to_string e)

let graft tree path node =
  let* tree =
    match Tree.find tree path with
    | Some _ -> Ok tree
    | None -> tree_err (Tree.insert tree path ~kind:"stub" ())
  in
  tree_err (Tree.replace_subtree tree path node)

let skeleton t =
  let roots =
    (if t.hosts = [] then [] else [ Schema.vm_root_kind, "vmRoot" ])
    @ if t.switches = [] then [] else [ Schema.net_root_kind, "netRoot" ]
  in
  List.fold_left
    (fun acc (kind, name) ->
      let* tree = acc in
      tree_err (Tree.insert tree (Path.v ("/" ^ name)) ~kind ()))
    (Ok Tree.empty) roots

(* The actual tree restricted to the managed schema.  Errors when a
   managed host or switch is missing from the tree (the planner cannot
   create hardware). *)
let project t ~actual =
  let* base = skeleton t in
  let* projected =
    List.fold_left
      (fun acc h ->
        let* tree = acc in
        let path = host_path h in
        match Tree.find actual path with
        | None ->
          Error
            (Printf.sprintf "managed host %s is not in the tree"
               (Path.to_string path))
        | Some node when not (String.equal node.Tree.kind Schema.vm_host_kind)
          ->
          Error
            (Printf.sprintf "managed host %s has kind %s"
               (Path.to_string path) node.Tree.kind)
        | Some node -> graft tree path (project_host_node node))
      (Ok base) t.hosts
  in
  List.fold_left
    (fun acc s ->
      let* tree = acc in
      let path = switch_path s in
      match Tree.find actual path with
      | None ->
        Error
          (Printf.sprintf "managed switch %s is not in the tree"
             (Path.to_string path))
      | Some node when not (String.equal node.Tree.kind Schema.switch_kind) ->
        Error
          (Printf.sprintf "managed switch %s has kind %s" (Path.to_string path)
             node.Tree.kind)
      | Some node -> graft tree path (project_switch_node node))
    (Ok projected) t.switches

(* The goal rendered as a tree over the managed schema. *)
let desired t =
  let* base = skeleton t in
  let* tree =
    List.fold_left
      (fun acc h ->
        let* tree = acc in
        graft tree (host_path h) (desired_host_node h))
      (Ok base) t.hosts
  in
  List.fold_left
    (fun acc s ->
      let* tree = acc in
      graft tree (switch_path s) (desired_switch_node s))
    (Ok tree) t.switches

let diff t ~actual =
  let* old_tree = project t ~actual in
  let* new_tree = desired t in
  Ok (Data.Diff.diff ~old_tree ~new_tree)
