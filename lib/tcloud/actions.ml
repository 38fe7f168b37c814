module Schema = Devices.Schema
module Tree = Data.Tree
module Value = Data.Value

let ( let* ) r f = Result.bind r f

(* ------------------------------------------------------------------ *)
(* Typed accessors *)

let attr node name =
  match Tree.attr node name with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing attribute %s" name)

let int_attr node name =
  let* v = attr node name in
  match Value.as_int v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "attribute %s is not an int" name)

let str_attr node name =
  let* v = attr node name in
  match Value.as_str v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "attribute %s is not a string" name)

let str_list_attr node name =
  let* v = attr node name in
  match Value.as_list v with
  | None -> Error (Printf.sprintf "attribute %s is not a list" name)
  | Some items ->
    Data.Sexp.map_result
      (fun item ->
        match Value.as_str item with
        | Some s -> Ok s
        | None -> Error (Printf.sprintf "attribute %s has non-string items" name))
      items

let sum_children node ~kind ~attr_name =
  Tree.Smap.fold
    (fun _ (child : Tree.node) acc ->
      if String.equal child.Tree.kind kind then
        match Tree.attr child attr_name with
        | Some v -> acc + Option.value (Value.as_int v) ~default:0
        | None -> acc
      else acc)
    node.Tree.children 0

let vm_memory_sum node =
  sum_children node ~kind:Schema.vm_kind ~attr_name:Schema.attr_mem_mb

let image_size_sum node =
  sum_children node ~kind:Schema.image_kind ~attr_name:Schema.attr_size_mb

(* ------------------------------------------------------------------ *)
(* Argument decoding *)

let str_arg args i =
  match List.nth_opt args i with
  | Some (Value.Str s) -> Ok s
  | Some _ | None -> Error (Printf.sprintf "argument %d: expected string" i)

let int_arg args i =
  match List.nth_opt args i with
  | Some (Value.Int n) -> Ok n
  | Some _ | None -> Error (Printf.sprintf "argument %d: expected int" i)

(* A name that becomes a path segment: a malformed one is an error, so the
   txn aborts with a reason where [Data.Path.child] would raise. *)
let name_arg args i =
  let* name = str_arg args i in
  if Data.Path.valid_segment name then Ok name
  else Error (Printf.sprintf "argument %d: %S is not a valid name" i name)

let node_at tree path =
  match Tree.find tree path with
  | Some node -> Ok node
  | None -> Error (Printf.sprintf "no node at %s" (Data.Path.to_string path))

let tree_err result = Result.map_error Tree.error_to_string result

(* ------------------------------------------------------------------ *)
(* Compute host actions *)

let import_image tree path args =
  let* image = str_arg args 0 in
  let* host = node_at tree path in
  let* imported = str_list_attr host Schema.attr_imported in
  if List.mem image imported then
    Error (Printf.sprintf "image %s already imported" image)
  else
    (* Kept sorted: the canonical form the devices export, so the two
       layers compare equal structurally. *)
    let imported' = List.sort String.compare (image :: imported) in
    tree_err
      (Tree.set_attr tree path Schema.attr_imported
         (Value.List (List.map (fun s -> Value.Str s) imported')))

let unimport_image tree path args =
  let* image = str_arg args 0 in
  let* host = node_at tree path in
  let* imported = str_list_attr host Schema.attr_imported in
  if not (List.mem image imported) then
    Error (Printf.sprintf "image %s not imported" image)
  else
    let used =
      Tree.Smap.exists
        (fun _ (vm : Tree.node) ->
          String.equal vm.Tree.kind Schema.vm_kind
          && Tree.attr vm Schema.attr_image
             = Some (Value.Str image))
        host.Tree.children
    in
    if used then Error (Printf.sprintf "image %s still used by a VM" image)
    else
      let remaining = List.filter (fun s -> not (String.equal s image)) imported in
      tree_err
        (Tree.set_attr tree path Schema.attr_imported
           (Value.List (List.map (fun s -> Value.Str s) remaining)))

let create_vm tree path args =
  let* name = name_arg args 0 in
  let* image = str_arg args 1 in
  let* mem = int_arg args 2 in
  let* host = node_at tree path in
  let* imported = str_list_attr host Schema.attr_imported in
  if Tree.Smap.mem name host.Tree.children then
    Error (Printf.sprintf "vm %s already exists" name)
  else if not (List.mem image imported) then
    Error (Printf.sprintf "image %s not imported" image)
  else
    tree_err
      (Tree.insert tree (Data.Path.child path name) ~kind:Schema.vm_kind
         ~attrs:
           [
             Schema.attr_state, Value.Str Schema.state_stopped;
             Schema.attr_mem_mb, Value.Int mem;
             Schema.attr_image, Value.Str image;
           ]
         ())

let vm_state tree path name =
  let vm_path = Data.Path.child path name in
  let* vm = node_at tree vm_path in
  let* state = str_attr vm Schema.attr_state in
  Ok (vm_path, state)

let remove_vm tree path args =
  let* name = name_arg args 0 in
  let* vm_path, state = vm_state tree path name in
  if String.equal state Schema.state_running then
    Error (Printf.sprintf "vm %s is running" name)
  else tree_err (Tree.remove tree vm_path)

let set_vm_state tree path args ~from_state ~to_state =
  let* name = name_arg args 0 in
  let* vm_path, state = vm_state tree path name in
  if not (String.equal state from_state) then
    Error (Printf.sprintf "vm %s is %s, not %s" name state from_state)
  else
    tree_err (Tree.set_attr tree vm_path Schema.attr_state (Value.Str to_state))

let start_vm tree path args =
  set_vm_state tree path args ~from_state:Schema.state_stopped
    ~to_state:Schema.state_running

let stop_vm tree path args =
  set_vm_state tree path args ~from_state:Schema.state_running
    ~to_state:Schema.state_stopped

(* ------------------------------------------------------------------ *)
(* Storage host actions *)

let image_node host name =
  match Tree.Smap.find_opt name host.Tree.children with
  | Some (node : Tree.node) when String.equal node.Tree.kind Schema.image_kind ->
    Ok node
  | Some _ | None -> Error (Printf.sprintf "image %s does not exist" name)

let bool_attr node name =
  let* v = attr node name in
  match Value.as_bool v with
  | Some b -> Ok b
  | None -> Error (Printf.sprintf "attribute %s is not a bool" name)

let clone_image tree path args =
  let* template = str_arg args 0 in
  let* image = name_arg args 1 in
  let* host = node_at tree path in
  let* template_node = image_node host template in
  let* is_template = bool_attr template_node Schema.attr_template in
  if not is_template then Error (Printf.sprintf "%s is not a template" template)
  else if Tree.Smap.mem image host.Tree.children then
    Error (Printf.sprintf "image %s already exists" image)
  else
    let* size = int_attr template_node Schema.attr_size_mb in
    tree_err
      (Tree.insert tree (Data.Path.child path image) ~kind:Schema.image_kind
         ~attrs:
           [
             Schema.attr_size_mb, Value.Int size;
             Schema.attr_template, Value.Bool false;
             Schema.attr_exported, Value.Bool false;
           ]
         ())

let remove_image tree path args =
  let* image = name_arg args 0 in
  let* host = node_at tree path in
  let* node = image_node host image in
  let* is_template = bool_attr node Schema.attr_template in
  let* exported = bool_attr node Schema.attr_exported in
  if is_template then Error "cannot remove a template"
  else if exported then Error (Printf.sprintf "image %s is still exported" image)
  else tree_err (Tree.remove tree (Data.Path.child path image))

let set_exported tree path args ~target =
  let* image = name_arg args 0 in
  let* host = node_at tree path in
  let* node = image_node host image in
  let* exported = bool_attr node Schema.attr_exported in
  if Bool.equal exported target then
    Error
      (Printf.sprintf "image %s already %s" image
         (if target then "exported" else "unexported"))
  else
    tree_err
      (Tree.set_attr tree (Data.Path.child path image) Schema.attr_exported
         (Value.Bool target))

let export_image tree path args = set_exported tree path args ~target:true
let unexport_image tree path args = set_exported tree path args ~target:false

(* ------------------------------------------------------------------ *)
(* Switch actions *)

let vlan_node_name id = Printf.sprintf "vlan%04d" id

let create_vlan tree path args =
  let* id = int_arg args 0 in
  let* name = str_arg args 1 in
  let* switch = node_at tree path in
  if Tree.Smap.mem (vlan_node_name id) switch.Tree.children then
    Error (Printf.sprintf "vlan %d already exists" id)
  else
    tree_err
      (Tree.insert tree
         (Data.Path.child path (vlan_node_name id))
         ~kind:Schema.vlan_kind
         ~attrs:
           [
             Schema.attr_vlan_name, Value.Str name;
             Schema.attr_ports, Value.List [];
           ]
         ())

let vlan_ports tree path id =
  let vlan_path = Data.Path.child path (vlan_node_name id) in
  let* node = node_at tree vlan_path in
  let* ports = str_list_attr node Schema.attr_ports in
  Ok (vlan_path, ports)

let remove_vlan tree path args =
  let* id = int_arg args 0 in
  let* vlan_path, ports = vlan_ports tree path id in
  if ports <> [] then Error (Printf.sprintf "vlan %d still has ports" id)
  else tree_err (Tree.remove tree vlan_path)

let add_port tree path args =
  let* id = int_arg args 0 in
  let* port = str_arg args 1 in
  let* vlan_path, ports = vlan_ports tree path id in
  if List.mem port ports then
    Error (Printf.sprintf "port %s already in vlan %d" port id)
  else
    tree_err
      (Tree.set_attr tree vlan_path Schema.attr_ports
         (Value.List
            (List.map (fun p -> Value.Str p)
               (List.sort String.compare (port :: ports)))))

let remove_port tree path args =
  let* id = int_arg args 0 in
  let* port = str_arg args 1 in
  let* vlan_path, ports = vlan_ports tree path id in
  if not (List.mem port ports) then
    Error (Printf.sprintf "port %s not in vlan %d" port id)
  else
    let remaining = List.filter (fun p -> not (String.equal p port)) ports in
    tree_err
      (Tree.set_attr tree vlan_path Schema.attr_ports
         (Value.List (List.map (fun p -> Value.Str p) remaining)))

(* ------------------------------------------------------------------ *)
(* Registration with Table 1's undo pairings *)

let first_arg args = match args with a :: _ -> [ a ] | [] -> []

(* removeVM is reversible because the undo captures the VM's recorded
   configuration from the pre-action tree: createVM can recreate it (its
   volume still exists at every point a removeVM appears in a procedure). *)
let remove_vm_undo tree path args =
  match args with
  | [ Value.Str name ] when Data.Path.valid_segment name ->
    (match Tree.find tree (Data.Path.child path name) with
     | Some vm ->
       (match
          ( Tree.attr vm Schema.attr_image,
            Tree.attr vm Schema.attr_mem_mb )
        with
        | Some image, Some mem ->
          Some (Schema.act_create_vm, [ Value.Str name; image; mem ])
        | _, _ -> None)
     | None -> None)
  | _ -> None

let remove_vlan_undo tree path args =
  match args with
  | [ Value.Int id ] ->
    (match Tree.find tree (Data.Path.child path (vlan_node_name id)) with
     | Some vlan ->
       (match Tree.attr vlan Schema.attr_vlan_name with
        | Some name -> Some (Schema.act_create_vlan, [ Value.Int id; name ])
        | None -> None)
     | None -> None)
  | _ -> None

let register_all env =
  let register kind act_name logical undo_of =
    Tropic.Dsl.register_action env
      { Tropic.Dsl.act_name; act_kind = kind; logical; undo_of }
  in
  let simple undo_of _tree _path args = undo_of args in
  let irreversible _tree _path _args = None in
  (* Compute host *)
  register Schema.vm_host_kind Schema.act_import_image import_image
    (simple (fun args -> Some (Schema.act_unimport_image, first_arg args)));
  register Schema.vm_host_kind Schema.act_unimport_image unimport_image
    (simple (fun args -> Some (Schema.act_import_image, first_arg args)));
  register Schema.vm_host_kind Schema.act_create_vm create_vm
    (simple (fun args -> Some (Schema.act_remove_vm, first_arg args)));
  register Schema.vm_host_kind Schema.act_remove_vm remove_vm remove_vm_undo;
  register Schema.vm_host_kind Schema.act_start_vm start_vm
    (simple (fun args -> Some (Schema.act_stop_vm, first_arg args)));
  register Schema.vm_host_kind Schema.act_stop_vm stop_vm
    (simple (fun args -> Some (Schema.act_start_vm, first_arg args)));
  (* Storage host: removeImage destroys data and stays irreversible, so
     procedures order it last. *)
  register Schema.storage_host_kind Schema.act_clone_image clone_image
    (simple (fun args ->
         match args with
         | [ _template; image ] -> Some (Schema.act_remove_image, [ image ])
         | _ -> None));
  register Schema.storage_host_kind Schema.act_remove_image remove_image
    irreversible;
  register Schema.storage_host_kind Schema.act_export_image export_image
    (simple (fun args -> Some (Schema.act_unexport_image, first_arg args)));
  register Schema.storage_host_kind Schema.act_unexport_image unexport_image
    (simple (fun args -> Some (Schema.act_export_image, first_arg args)));
  (* Switch *)
  register Schema.switch_kind Schema.act_create_vlan create_vlan
    (simple (fun args -> Some (Schema.act_remove_vlan, first_arg args)));
  register Schema.switch_kind Schema.act_remove_vlan remove_vlan
    remove_vlan_undo;
  register Schema.switch_kind Schema.act_add_port add_port
    (simple (fun args -> Some (Schema.act_remove_port, args)));
  register Schema.switch_kind Schema.act_remove_port remove_port
    (simple (fun args -> Some (Schema.act_add_port, args)))
