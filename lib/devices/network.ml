module Smap = Data.Tree.Smap

type vlan = { vlan_name : string; mutable ports : string list }

(* VLANs keyed by their child name in the exported tree, in a persistent
   map held in a mutable field: no bucket array per switch. *)
type t = {
  limit : int;
  mutable vlans : vlan Smap.t;
  handle : Device.t Lazy.t;
}

let vlan_key id = Printf.sprintf "vlan%04d" id

(* Every exported VLAN, of every switch, holds this maker's names array. *)
let vlan_maker =
  Data.Tree.maker ~kind:Schema.vlan_kind [ Schema.attr_vlan_name; Schema.attr_ports ]

let vlan_node vlan =
  vlan_maker
    [
      Data.Value.Str vlan.vlan_name;
      Data.Value.List
        (List.map (fun p -> Data.Value.Str p) (List.sort String.compare vlan.ports));
    ]

let export_state switch () =
  let node =
    Data.Tree.make_node ~kind:Schema.switch_kind
      ~attrs:[ Schema.attr_max_vlans, Data.Value.Int switch.limit ]
      ()
  in
  Data.Tree.with_children node (Smap.map vlan_node switch.vlans)

let find_vlan switch id = Smap.find_opt (vlan_key id) switch.vlans

let ( let* ) r f = Result.bind r f

let dispatch switch ~action ~args =
  if String.equal action Schema.act_create_vlan then
    let* id = Device.int_arg args 0 in
    let* name = Device.str_arg args 1 in
    if Smap.mem (vlan_key id) switch.vlans then
      Error (Printf.sprintf "vlan %d already exists" id)
    else if Smap.cardinal switch.vlans >= switch.limit then
      Error "switch out of vlan capacity"
    else
      Ok
        (switch.vlans <-
           Smap.add (vlan_key id) { vlan_name = name; ports = [] } switch.vlans)
  else if String.equal action Schema.act_remove_vlan then
    let* id = Device.int_arg args 0 in
    (match find_vlan switch id with
     | None -> Error (Printf.sprintf "vlan %d does not exist" id)
     | Some { ports = _ :: _; _ } ->
       Error (Printf.sprintf "vlan %d still has ports" id)
     | Some { ports = []; _ } ->
       Ok (switch.vlans <- Smap.remove (vlan_key id) switch.vlans))
  else if String.equal action Schema.act_add_port then
    let* id = Device.int_arg args 0 in
    let* port = Device.str_arg args 1 in
    (match find_vlan switch id with
     | None -> Error (Printf.sprintf "vlan %d does not exist" id)
     | Some vlan ->
       if List.mem port vlan.ports then
         Error (Printf.sprintf "port %s already in vlan %d" port id)
       else Ok (vlan.ports <- port :: vlan.ports))
  else if String.equal action Schema.act_remove_port then
    let* id = Device.int_arg args 0 in
    let* port = Device.str_arg args 1 in
    (match find_vlan switch id with
     | None -> Error (Printf.sprintf "vlan %d does not exist" id)
     | Some vlan ->
       if not (List.mem port vlan.ports) then
         Error (Printf.sprintf "port %s not in vlan %d" port id)
       else Ok (vlan.ports <- List.filter (fun p -> p <> port) vlan.ports))
  else Error (Printf.sprintf "switch: unknown action %s" action)

let create ?(timing = `Instant) ?latency ?rng ~root ~max_vlans () =
  let latency = Option.value latency ~default:Device.default_latency in
  let rng =
    match rng with Some r -> r | None -> Random.State.make [| 2213 |]
  in
  let rec switch =
    {
      limit = max_vlans;
      vlans = Smap.empty;
      handle =
        lazy
          (Device.make ~root ~kind:Schema.switch_kind ~timing ~latency ~rng
             ~dispatch:(fun ~action ~args -> dispatch switch ~action ~args)
             ~export_state:(export_state switch));
    }
  in
  switch

let device switch = Lazy.force switch.handle

let ports_of switch id =
  Option.map
    (fun vlan -> List.sort String.compare vlan.ports)
    (find_vlan switch id)

let force_remove_vlan switch id =
  switch.vlans <- Smap.remove (vlan_key id) switch.vlans
