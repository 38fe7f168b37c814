module Schema = Devices.Schema
module Value = Data.Value
module Tree = Data.Tree
module Path = Data.Path
module Diff = Data.Diff

type step = {
  step_id : int;
  proc : string;
  args : Value.t list;
  label : string;
  deps : int list;
}

type t = { steps : step list; unplannable : string list }

type context = { storage_hosts : int; template : string }

let empty = { steps = []; unplannable = [] }
let pp_step fmt s = Format.fprintf fmt "#%d %s [%s]" s.step_id s.proc s.label

let step_to_string s = Format.asprintf "%a" pp_step s

(* ------------------------------------------------------------------ *)
(* Change classification.  The diff is over the managed projection
   (Model.project / Model.desired), so the only shapes that can appear
   are: vm added/removed, vm attr changed, vlan added/removed, vlan attr
   changed.  Anything else is drift the procedures cannot realize. *)

type vm_change = {
  vc_vm : string;
  vc_host : int;  (** Setup host index *)
  vc_running : bool;
  vc_mem : int;
}

type intent =
  | Spawn of vm_change
  | Destroy of vm_change  (** current state of the vm being removed *)
  | Migrate of {
      mg : vm_change;  (** vc_host = destination, vc_running = desired *)
      mg_src : int;
      mg_fix : [ `None | `Start | `Stop ];
          (** migrateVM preserves the running state; when the desired state
              differs from the source's, a follow-up start/stop is needed *)
    }
  | Rebuild of { rb_old : vm_change; rb_new : vm_change }
      (** same host or cross-host, memory resize: destroy then spawn *)
  | Start of { st_vm : string; st_host : int }
  | Stop of { st_vm : string; st_host : int }
  | Create_vlan of { cv_switch : int; cv_id : int; cv_name : string }
  | Remove_vlan of { rv_switch : int; rv_id : int }
  | Attach of { at_switch : int; at_id : int; at_vm : string }
  | Detach of { dt_switch : int; dt_id : int; dt_vm : string }

let host_index_of_path path =
  match Path.segments path with
  | [ "vmRoot"; host ] | [ "vmRoot"; host; _ ] ->
    (try Some (int_of_string (String.sub host 4 (String.length host - 4)))
     with _ -> None)
  | _ -> None

let switch_index_of_path path =
  match Path.segments path with
  | [ "netRoot"; sw ] | [ "netRoot"; sw; _ ] ->
    (try Some (int_of_string (String.sub sw 6 (String.length sw - 6)))
     with _ -> None)
  | _ -> None

let vlan_id_of_name name =
  try Some (int_of_string (String.sub name 4 (String.length name - 4)))
  with _ -> None

let node_vm_change ~vm ~host (node : Tree.node) =
  let running =
    match Tree.attr node Schema.attr_state with
    | Some (Value.Str s) -> String.equal s Schema.state_running
    | Some _ | None -> false
  in
  let mem =
    match Tree.attr node Schema.attr_mem_mb with
    | Some (Value.Int m) -> m
    | Some _ | None -> 0
  in
  { vc_vm = vm; vc_host = host; vc_running = running; vc_mem = mem }

let str_ports = function
  | Value.List vs ->
    List.filter_map (function Value.Str s -> Some s | _ -> None) vs
  | _ -> []

(* Ports are registered on the switch as [vm ^ ".eth0"]; recover the vm. *)
let vm_of_port port =
  match String.rindex_opt port '.' with
  | Some i -> String.sub port 0 i
  | None -> port

(* Fold the diff's changes into planning intents.  Relies on the diff
   ordering contract: a vm subtree add/remove appears exactly once, at the
   vm node, so pairing by vm name across hosts is well defined. *)
let classify ~actual changes =
  let intents = ref [] in
  let unplannable = ref [] in
  let emit i = intents := i :: !intents in
  let reject c =
    unplannable := Diff.change_to_string c :: !unplannable
  in
  let vm_path_parts path =
    match Path.segments path, Path.basename path with
    | [ "vmRoot"; _; _ ], Some vm ->
      (match host_index_of_path path with
       | Some h -> Some (vm, h)
       | None -> None)
    | _ -> None
  in
  let vlan_path_parts path =
    match Path.segments path, Path.basename path with
    | [ "netRoot"; _; _ ], Some vlan ->
      (match switch_index_of_path path, vlan_id_of_name vlan with
       | Some sw, Some id -> Some (sw, id)
       | _ -> None)
    | _ -> None
  in
  List.iter
    (fun change ->
      match change with
      | Diff.Added (path, node) ->
        (match vm_path_parts path with
         | Some (vm, host) -> emit (Spawn (node_vm_change ~vm ~host node))
         | None ->
           (match vlan_path_parts path with
            | Some (sw, id) ->
              let name =
                match Tree.attr node Schema.attr_vlan_name with
                | Some (Value.Str s) -> s
                | Some _ | None -> Printf.sprintf "vlan%d" id
              in
              emit (Create_vlan { cv_switch = sw; cv_id = id; cv_name = name });
              let ports =
                match Tree.attr node Schema.attr_ports with
                | Some v -> str_ports v
                | None -> []
              in
              List.iter
                (fun port ->
                  emit
                    (Attach
                       { at_switch = sw; at_id = id; at_vm = vm_of_port port }))
                ports
            | None -> reject change))
      | Diff.Removed path ->
        (match vm_path_parts path with
         | Some (vm, host) ->
           (match Tree.find actual path with
            | Some node -> emit (Destroy (node_vm_change ~vm ~host node))
            | None -> reject change)
         | None ->
           (match vlan_path_parts path with
            | Some (sw, id) ->
              let ports =
                match Tree.get_attr actual path Schema.attr_ports with
                | Some v -> str_ports v
                | None -> []
              in
              List.iter
                (fun port ->
                  emit
                    (Detach
                       { dt_switch = sw; dt_id = id; dt_vm = vm_of_port port }))
                ports;
              emit (Remove_vlan { rv_switch = sw; rv_id = id })
            | None -> reject change))
      | Diff.Attr_set (path, attr, _, new_v)
        when String.equal attr Schema.attr_state -> (
        match vm_path_parts path with
        | Some (vm, host) ->
          if Value.equal new_v (Value.Str Schema.state_running) then
            emit (Start { st_vm = vm; st_host = host })
          else emit (Stop { st_vm = vm; st_host = host })
        | None -> reject change)
      | Diff.Attr_set (path, attr, _, new_v)
        when String.equal attr Schema.attr_mem_mb -> (
        match vm_path_parts path with
        | Some (vm, host) -> (
          match Tree.find actual path, Value.as_int new_v with
          | Some node, Some new_mem ->
            let current = node_vm_change ~vm ~host node in
            (* desired running state: the same diff may also carry a state
               change for this vm; the rebuild reads it from the desired
               value directly when present, else keeps the current state. *)
            let desired_running =
              List.fold_left
                (fun acc c ->
                  match c with
                  | Diff.Attr_set (p, a, _, v)
                    when Path.equal p path && String.equal a Schema.attr_state
                    -> Value.equal v (Value.Str Schema.state_running)
                  | _ -> acc)
                current.vc_running changes
            in
            emit
              (Rebuild
                 {
                   rb_old = current;
                   rb_new =
                     {
                       vc_vm = vm;
                       vc_host = host;
                       vc_running = desired_running;
                       vc_mem = new_mem;
                     };
                 })
          | _ -> reject change)
        | None -> reject change)
      | Diff.Attr_set (path, attr, old_v, new_v)
        when String.equal attr Schema.attr_ports -> (
        match vlan_path_parts path with
        | Some (sw, id) ->
          let old_ports =
            match old_v with Some v -> str_ports v | None -> []
          in
          let new_ports = str_ports new_v in
          List.iter
            (fun p ->
              if not (List.mem p new_ports) then
                emit
                  (Detach { dt_switch = sw; dt_id = id; dt_vm = vm_of_port p }))
            old_ports;
          List.iter
            (fun p ->
              if not (List.mem p old_ports) then
                emit
                  (Attach { at_switch = sw; at_id = id; at_vm = vm_of_port p }))
            new_ports
        | None -> reject change)
      | Diff.Attr_set _ | Diff.Attr_removed _ | Diff.Kind_changed _ ->
        reject change)
    changes;
  (* A state-only change on a vm that is also being rebuilt is subsumed by
     the rebuild (spawn ends running; a Stop step is added as needed). *)
  let rebuilt =
    List.filter_map
      (function Rebuild { rb_new; _ } -> Some rb_new.vc_vm | _ -> None)
      !intents
  in
  let intents =
    List.filter
      (function
        | Start { st_vm; _ } | Stop { st_vm; _ } -> not (List.mem st_vm rebuilt)
        | _ -> true)
      !intents
  in
  (List.rev intents, List.rev !unplannable)

(* Migrate pairing: a vm removed from one host and added on another with
   the same memory is a migration — TROPIC's migrateVM preserves the
   running state and moves the image import in one transaction. *)
let pair_migrations ~actual intents =
  let hypervisor_of host =
    match
      Tree.get_attr actual
        (Tcloud.Setup.compute_path host)
        Schema.attr_hypervisor
    with
    | Some (Value.Str h) -> Some h
    | Some _ | None -> None
  in
  let spawns, rest =
    List.partition (function Spawn _ -> true | _ -> false) intents
  in
  let destroys, rest2 =
    List.partition (function Destroy _ -> true | _ -> false) rest
  in
  let destroys =
    List.filter_map (function Destroy d -> Some d | _ -> None) destroys
  in
  let paired = ref [] in
  let used = Hashtbl.create 8 in
  let spawns' =
    List.map
      (fun intent ->
        match intent with
        | Spawn s -> (
          match
            List.find_opt
              (fun d ->
                String.equal d.vc_vm s.vc_vm
                && (not (Hashtbl.mem used d.vc_vm))
                && d.vc_mem = s.vc_mem
                &&
                match hypervisor_of d.vc_host, hypervisor_of s.vc_host with
                | Some a, Some b -> String.equal a b
                | _ -> false)
              destroys
          with
          | Some d ->
            Hashtbl.replace used d.vc_vm ();
            paired := d.vc_vm :: !paired;
            let mg_fix =
              if Bool.equal s.vc_running d.vc_running then `None
              else if s.vc_running then `Start
              else `Stop
            in
            Migrate { mg = s; mg_src = d.vc_host; mg_fix }
          | None -> (
            (* same name, but memory or hypervisor differs: rebuild *)
            match
              List.find_opt
                (fun d ->
                  String.equal d.vc_vm s.vc_vm
                  && not (Hashtbl.mem used d.vc_vm))
                destroys
            with
            | Some d ->
              Hashtbl.replace used d.vc_vm ();
              paired := d.vc_vm :: !paired;
              Rebuild { rb_old = d; rb_new = s }
            | None -> intent))
        | other -> other)
      spawns
  in
  let destroys' =
    List.filter_map
      (fun d -> if Hashtbl.mem used d.vc_vm then None else Some (Destroy d))
      destroys
  in
  spawns' @ destroys' @ rest2

(* ------------------------------------------------------------------ *)
(* Step emission *)

let host_str i = Path.to_string (Tcloud.Setup.compute_path i)
let switch_str i = Path.to_string (Tcloud.Setup.switch_path i)

let storage_str ctx host =
  Path.to_string (Tcloud.Setup.storage_path (host mod ctx.storage_hosts))

type emitted = {
  e_proc : string;
  e_args : Value.t list;
  e_label : string;
  (* memory accounting for capacity edges: (host, mem) pairs *)
  e_inbound : (int * int) list;
  e_outbound : (int * int) list;
  (* intra-intent ordering: this emitted step depends on the previous
     emitted step of the same intent *)
  e_after_prev : bool;
  e_vm : string option;  (** vm this step spawns/migrates (attach deps) *)
  e_destroyed_vm : string option;
  e_vlan : (int * int) option;  (** vlan this step creates *)
  e_removed_vlan : (int * int) option;
}

let plain ~proc ~args ~label =
  {
    e_proc = proc;
    e_args = args;
    e_label = label;
    e_inbound = [];
    e_outbound = [];
    e_after_prev = false;
    e_vm = None;
    e_destroyed_vm = None;
    e_vlan = None;
    e_removed_vlan = None;
  }

let emit_intent ctx intent =
  match intent with
  | Spawn s ->
    let spawn =
      {
        (plain ~proc:"spawnVM"
           ~args:
             (Tcloud.Procs.spawn_vm_args ~vm:s.vc_vm ~template:ctx.template
                ~mem_mb:s.vc_mem
                ~storage:(storage_str ctx s.vc_host)
                ~host:(host_str s.vc_host))
           ~label:
             (Printf.sprintf "spawn %s on host%05d (%d MB)" s.vc_vm s.vc_host
                s.vc_mem))
        with
        e_inbound = [ s.vc_host, s.vc_mem ];
        e_vm = Some s.vc_vm;
      }
    in
    if s.vc_running then [ spawn ]
    else
      [
        spawn;
        {
          (plain ~proc:"stopVM"
             ~args:
               (Tcloud.Procs.stop_vm_args ~host:(host_str s.vc_host)
                  ~vm:s.vc_vm)
             ~label:(Printf.sprintf "stop %s after spawn" s.vc_vm))
          with
          e_after_prev = true;
        };
      ]
  | Destroy d ->
    [
      {
        (plain ~proc:"destroyVM"
           ~args:
             (Tcloud.Procs.destroy_vm_args ~host:(host_str d.vc_host)
                ~storage:(storage_str ctx d.vc_host) ~vm:d.vc_vm)
           ~label:(Printf.sprintf "destroy %s on host%05d" d.vc_vm d.vc_host))
        with
        e_outbound = [ d.vc_host, d.vc_mem ];
        e_destroyed_vm = Some d.vc_vm;
      };
    ]
  | Migrate { mg; mg_src; mg_fix } ->
    let migrate =
      {
        (plain ~proc:"migrateVM"
           ~args:
             (Tcloud.Procs.migrate_vm_args ~src:(host_str mg_src)
                ~dst:(host_str mg.vc_host) ~vm:mg.vc_vm)
           ~label:
             (Printf.sprintf "migrate %s host%05d -> host%05d" mg.vc_vm mg_src
                mg.vc_host))
        with
        e_inbound = [ mg.vc_host, mg.vc_mem ];
        e_outbound = [ mg_src, mg.vc_mem ];
        e_vm = Some mg.vc_vm;
      }
    in
    (match mg_fix with
     | `None -> [ migrate ]
     | `Start ->
       [
         migrate;
         {
           (plain ~proc:"startVM"
              ~args:
                (Tcloud.Procs.start_vm_args ~host:(host_str mg.vc_host)
                   ~vm:mg.vc_vm)
              ~label:(Printf.sprintf "start %s after migrate" mg.vc_vm))
           with
           e_after_prev = true;
         };
       ]
     | `Stop ->
       [
         migrate;
         {
           (plain ~proc:"stopVM"
              ~args:
                (Tcloud.Procs.stop_vm_args ~host:(host_str mg.vc_host)
                   ~vm:mg.vc_vm)
              ~label:(Printf.sprintf "stop %s after migrate" mg.vc_vm))
           with
           e_after_prev = true;
         };
       ])
  | Rebuild { rb_old; rb_new } ->
    let destroy =
      {
        (plain ~proc:"destroyVM"
           ~args:
             (Tcloud.Procs.destroy_vm_args ~host:(host_str rb_old.vc_host)
                ~storage:(storage_str ctx rb_old.vc_host) ~vm:rb_old.vc_vm)
           ~label:
             (Printf.sprintf "destroy %s on host%05d (rebuild)" rb_old.vc_vm
                rb_old.vc_host))
        with
        e_outbound = [ rb_old.vc_host, rb_old.vc_mem ];
        e_destroyed_vm = Some rb_old.vc_vm;
      }
    in
    let spawn =
      {
        (plain ~proc:"spawnVM"
           ~args:
             (Tcloud.Procs.spawn_vm_args ~vm:rb_new.vc_vm
                ~template:ctx.template ~mem_mb:rb_new.vc_mem
                ~storage:(storage_str ctx rb_new.vc_host)
                ~host:(host_str rb_new.vc_host))
           ~label:
             (Printf.sprintf "respawn %s on host%05d (%d MB)" rb_new.vc_vm
                rb_new.vc_host rb_new.vc_mem))
        with
        e_inbound = [ rb_new.vc_host, rb_new.vc_mem ];
        e_after_prev = true;
        e_vm = Some rb_new.vc_vm;
      }
    in
    if rb_new.vc_running then [ destroy; spawn ]
    else
      [
        destroy; spawn;
        {
          (plain ~proc:"stopVM"
             ~args:
               (Tcloud.Procs.stop_vm_args ~host:(host_str rb_new.vc_host)
                  ~vm:rb_new.vc_vm)
             ~label:(Printf.sprintf "stop %s after rebuild" rb_new.vc_vm))
          with
          e_after_prev = true;
        };
      ]
  | Start { st_vm; st_host } ->
    [
      plain ~proc:"startVM"
        ~args:(Tcloud.Procs.start_vm_args ~host:(host_str st_host) ~vm:st_vm)
        ~label:(Printf.sprintf "start %s on host%05d" st_vm st_host);
    ]
  | Stop { st_vm; st_host } ->
    [
      plain ~proc:"stopVM"
        ~args:(Tcloud.Procs.stop_vm_args ~host:(host_str st_host) ~vm:st_vm)
        ~label:(Printf.sprintf "stop %s on host%05d" st_vm st_host);
    ]
  | Create_vlan { cv_switch; cv_id; cv_name } ->
    [
      {
        (plain ~proc:"createVlan"
           ~args:
             (Tcloud.Procs.create_vlan_args ~switch:(switch_str cv_switch)
                ~vlan:cv_id ~name:cv_name)
           ~label:(Printf.sprintf "create vlan %d on switch%03d" cv_id cv_switch))
        with
        e_vlan = Some (cv_switch, cv_id);
      };
    ]
  | Remove_vlan { rv_switch; rv_id } ->
    [
      {
        (plain ~proc:"removeVlan"
           ~args:
             (Tcloud.Procs.remove_vlan_args ~switch:(switch_str rv_switch)
                ~vlan:rv_id)
           ~label:(Printf.sprintf "remove vlan %d on switch%03d" rv_id rv_switch))
        with
        e_removed_vlan = Some (rv_switch, rv_id);
      };
    ]
  | Attach { at_switch; at_id; at_vm } ->
    [
      plain ~proc:"attachVmVlan"
        ~args:
          (Tcloud.Procs.attach_vm_vlan_args ~switch:(switch_str at_switch)
             ~vlan:at_id ~vm:at_vm)
        ~label:(Printf.sprintf "attach %s to vlan %d" at_vm at_id);
    ]
  | Detach { dt_switch; dt_id; dt_vm } ->
    [
      plain ~proc:"detachVmVlan"
        ~args:
          (Tcloud.Procs.detach_vm_vlan_args ~switch:(switch_str dt_switch)
             ~vlan:dt_id ~vm:dt_vm)
        ~label:(Printf.sprintf "detach %s from vlan %d" dt_vm dt_id);
    ]

(* ------------------------------------------------------------------ *)
(* Dependency edges *)

let host_free ~actual host =
  let path = Tcloud.Setup.compute_path host in
  match Tree.find actual path with
  | None -> 0
  | Some node ->
    let capacity =
      match Tree.attr node Schema.attr_mem_mb with
      | Some (Value.Int m) -> m
      | Some _ | None -> 0
    in
    let used =
      Tree.Smap.fold
        (fun _ (child : Tree.node) acc ->
          if String.equal child.Tree.kind Schema.vm_kind then
            acc
            +
            match Tree.attr child Schema.attr_mem_mb with
            | Some (Value.Int m) -> m
            | Some _ | None -> 0
          else acc)
        node.Tree.children 0
    in
    capacity - used

(* Edges, by rule:
   - within an intent, each step follows the previous one (start/stop after
     spawn, spawn after destroy in a rebuild);
   - attaching a port for a vm this plan spawns or migrates waits for it;
   - destroying a vm this plan detaches ports from waits for the detaches;
   - adding ports to a vlan this plan creates waits for the createVlan;
   - removing a vlan waits for every port detach on it;
   - capacity: when a host's inbound memory exceeds its current free
     memory, every inbound step on that host waits for every outbound step
     on that host (drain before fill). *)
let edges_of ~actual (emitted : emitted array) =
  let deps = Array.make (Array.length emitted) [] in
  let add_dep i j = if i <> j then deps.(i) <- j :: deps.(i) in
  Array.iteri
    (fun i e ->
      (* attach waits for the vm's spawn/migrate step *)
      (match e.e_proc with
       | "attachVmVlan" -> (
         match e.e_args with
         | [ _; _; Value.Str vm ] ->
           Array.iteri
             (fun j other ->
               match other.e_vm with
               | Some v when String.equal v vm -> add_dep i j
               | _ -> ())
             emitted
         | _ -> ())
       | "destroyVM" -> (
         (* destroy waits for this vm's port detaches *)
         match e.e_destroyed_vm with
         | Some vm ->
           Array.iteri
             (fun j other ->
               if String.equal other.e_proc "detachVmVlan" then
                 match other.e_args with
                 | [ _; _; Value.Str v ] when String.equal v vm -> add_dep i j
                 | _ -> ())
             emitted
         | None -> ())
       | _ -> ());
      (* attach to a created vlan waits for createVlan *)
      (match e.e_proc with
       | "attachVmVlan" | "detachVmVlan" -> (
         match e.e_args with
         | [ Value.Str sw; Value.Int id; _ ] ->
           Array.iteri
             (fun j other ->
               match other.e_vlan with
               | Some (osw, oid) when oid = id && String.equal (switch_str osw) sw
                 -> add_dep i j
               | _ -> ())
             emitted
         | _ -> ())
       | _ -> ());
      (* removeVlan waits for its detaches *)
      match e.e_removed_vlan with
      | Some (sw, id) ->
        Array.iteri
          (fun j other ->
            if String.equal other.e_proc "detachVmVlan" then
              match other.e_args with
              | [ Value.Str osw; Value.Int oid; _ ]
                when oid = id && String.equal osw (switch_str sw) ->
                add_dep i j
              | _ -> ())
          emitted
      | None -> ())
    emitted;
  (* capacity edges *)
  let hosts = Hashtbl.create 8 in
  Array.iter
    (fun e ->
      List.iter
        (fun (h, _) -> Hashtbl.replace hosts h ())
        (e.e_inbound @ e.e_outbound))
    emitted;
  Hashtbl.iter
    (fun host () ->
      let inbound = ref 0 in
      Array.iter
        (fun e ->
          List.iter
            (fun (h, m) -> if h = host then inbound := !inbound + m)
            e.e_inbound)
        emitted;
      if !inbound > host_free ~actual host then
        Array.iteri
          (fun i e ->
            if List.exists (fun (h, _) -> h = host) e.e_inbound then
              Array.iteri
                (fun j other ->
                  if List.exists (fun (h, _) -> h = host) other.e_outbound then
                    add_dep i j)
                emitted)
          emitted)
    hosts;
  deps

(* ------------------------------------------------------------------ *)
(* Topological order (Kahn), deterministic: among ready steps the lowest
   id goes first.  Returns the order, or the ids of a cycle's members. *)

let toposort n deps =
  let indeg = Array.make n 0 in
  let out = Array.make n [] in
  Array.iteri
    (fun i ds ->
      List.iter
        (fun j ->
          indeg.(i) <- indeg.(i) + 1;
          out.(j) <- i :: out.(j))
        ds)
    deps;
  let order = ref [] in
  let placed = Array.make n false in
  let count = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let ready = ref None in
    for i = n - 1 downto 0 do
      if (not placed.(i)) && indeg.(i) = 0 then ready := Some i
    done;
    match !ready with
    | None -> continue_ := false
    | Some i ->
      placed.(i) <- true;
      incr count;
      order := i :: !order;
      List.iter (fun j -> indeg.(j) <- indeg.(j) - 1) out.(i)
  done;
  if !count = n then Ok (List.rev !order)
  else
    Error
      (Array.to_list
         (Array.of_seq
            (Seq.filter_map
               (fun i -> if placed.(i) then None else Some i)
               (Seq.init n Fun.id))))

(* Cycle break: split one migrate of the cycle into two hops through a
   staging host — a managed host with a matching hypervisor and enough
   free memory that is neither endpoint.  The classic case is a swap
   between two full hosts: neither migration can go first, but routing one
   vm through a third host leaves a straight line. *)
let break_cycle ~actual ~model cycle intents =
  let managed = List.map (fun h -> h.Model.host_index) model.Model.hosts in
  let hypervisor_of host =
    match
      Tree.get_attr actual
        (Tcloud.Setup.compute_path host)
        Schema.attr_hypervisor
    with
    | Some (Value.Str h) -> Some h
    | Some _ | None -> None
  in
  (* candidate: the cycle's lowest-indexed migrate intent *)
  let indexed = List.mapi (fun i intent -> i, intent) intents in
  let in_cycle =
    List.filter_map
      (fun (i, intent) ->
        match intent with
        | Migrate { mg; mg_src; mg_fix } when List.mem i cycle ->
          Some (i, (mg, mg_src, mg_fix))
        | _ -> None)
      indexed
  in
  match in_cycle with
  | [] -> None
  | (idx, (mg, mg_src, mg_fix)) :: _ ->
    let inbound_elsewhere host =
      List.exists
        (function
          | Migrate { mg = m; _ } -> m.vc_host = host
          | Spawn s -> s.vc_host = host
          | Rebuild { rb_new; _ } -> rb_new.vc_host = host
          | _ -> false)
        intents
    in
    let staging =
      List.find_opt
        (fun h ->
          h <> mg_src && h <> mg.vc_host
          && (not (inbound_elsewhere h))
          && host_free ~actual h >= mg.vc_mem
          &&
          match hypervisor_of h, hypervisor_of mg_src with
          | Some a, Some b -> String.equal a b
          | _ -> false)
        (List.sort compare managed)
    in
    (match staging with
     | None -> None
     | Some stage ->
       let hop1 =
         Migrate { mg = { mg with vc_host = stage }; mg_src; mg_fix = `None }
       in
       let hop2 = Migrate { mg; mg_src = stage; mg_fix } in
       Some
         (List.concat_map
            (fun (i, intent) ->
              if i = idx then [ hop1; hop2 ] else [ intent ])
            indexed))

(* ------------------------------------------------------------------ *)

let compile ?(ordered = true) ctx model ~actual =
  match Model.diff model ~actual with
  | Error e -> Error e
  | Ok [] -> Ok empty
  | Ok changes ->
    let intents, unplannable = classify ~actual changes in
    let intents = pair_migrations ~actual intents in
    let rec build attempts intents =
      let emitted =
        List.concat_map
          (fun intent ->
            let steps = emit_intent ctx intent in
            (* tag each emitted step with its intent's position so
               intra-intent chains can be wired below *)
            List.map (fun e -> intent, e) steps)
          intents
      in
      let emitted_arr = Array.of_list (List.map snd emitted) in
      let n = Array.length emitted_arr in
      (* intra-intent edges *)
      let base_deps = Array.make n [] in
      Array.iteri
        (fun i e -> if e.e_after_prev && i > 0 then base_deps.(i) <- [ i - 1 ])
        emitted_arr;
      if not ordered then
        Ok
          {
            steps =
              List.mapi
                (fun i e ->
                  {
                    step_id = i;
                    proc = e.e_proc;
                    args = e.e_args;
                    label = e.e_label;
                    deps = [];
                  })
                (Array.to_list emitted_arr);
            unplannable;
          }
      else
        let deps = edges_of ~actual emitted_arr in
        Array.iteri
          (fun i ds ->
            deps.(i) <- List.sort_uniq compare (ds @ base_deps.(i)))
          deps;
        match toposort n deps with
        | Ok order ->
          (* renumber in topological order; keep deps as step ids *)
          let rank = Array.make n 0 in
          List.iteri (fun r i -> rank.(i) <- r) order;
          let steps =
            List.map
              (fun i ->
                let e = emitted_arr.(i) in
                {
                  step_id = rank.(i);
                  proc = e.e_proc;
                  args = e.e_args;
                  label = e.e_label;
                  deps = List.sort compare (List.map (fun j -> rank.(j)) deps.(i));
                })
              order
          in
          Ok { steps; unplannable }
        | Error cycle_steps ->
          if attempts <= 0 then
            Ok
              {
                steps = [];
                unplannable =
                  unplannable
                  @ List.map
                      (fun i -> "cyclic: " ^ emitted_arr.(i).e_label)
                      cycle_steps;
              }
          else
            (* map cycle step indices back to intent indices *)
            let intent_of_step = Array.make n 0 in
            let k = ref 0 in
            List.iteri
              (fun intent_idx intent ->
                List.iter
                  (fun _ ->
                    intent_of_step.(!k) <- intent_idx;
                    incr k)
                  (emit_intent ctx intent))
              intents;
            let cycle_intents =
              List.sort_uniq compare
                (List.map (fun i -> intent_of_step.(i)) cycle_steps)
            in
            (match break_cycle ~actual ~model cycle_intents intents with
             | Some intents' -> build (attempts - 1) intents'
             | None ->
               Ok
                 {
                   steps = [];
                   unplannable =
                     unplannable
                     @ List.map
                         (fun i -> "cyclic: " ^ emitted_arr.(i).e_label)
                         cycle_steps;
                 })
    in
    build (List.length intents) intents
