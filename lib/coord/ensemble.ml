type t = {
  esim : Des.Sim.t;
  enet : Types.msg Des.Net.t;
  econfig : Types.config;
  slots : (int, Replica.t) Hashtbl.t; (* node id -> current instance *)
  up : (int, bool) Hashtbl.t;
  stats : Types.membership_stats;
  gstats : Types.group_stats;
  boot_members : int list;
  mutable next_client : int;
  client_base : int;
  client_slots : int;
  spare_base : int;
  spares : int;
  mutable control : Client.t option; (* lazy session for config changes *)
  trace : Trace.t;
}

(* Datacenter LAN: sub-millisecond round trips, like the paper's testbed. *)
let lan_latency ~src:_ ~dst:_ ~rng = Des.Dist.uniform rng ~lo:0.0001 ~hi:0.0003

(* Membership instants live on the system lane (txn 0). *)
let emit e name replica =
  Trace.instant e.trace ~txn:0 ~cat:"membership" ~name
    ~attrs:[ ("replica", string_of_int replica) ]
    ()

let create ?(clients = 64) ?(config = Types.default_config)
    ?(stats = Types.fresh_membership_stats ())
    ?(gstats = Types.fresh_group_stats ()) ?(trace = Trace.off) sim =
  (* Spare node ids live *above* the client range, so client session ids
     are independent of how many spares exist (trace stability). *)
  let replicas = Types.boot_replicas and spares = Types.spare_slots in
  let nodes = replicas + clients + spares in
  let enet = Des.Net.create ~latency:lan_latency sim ~nodes in
  let boot_members = List.init replicas Fun.id in
  let slots = Hashtbl.create 8 in
  let up = Hashtbl.create 8 in
  List.iter
    (fun id ->
      let r =
        Replica.create ~stats ~gstats ~net:enet ~id ~members:boot_members
          ~config ()
      in
      Hashtbl.replace slots id r;
      Hashtbl.replace up id true;
      Replica.start r)
    boot_members;
  {
    esim = sim;
    enet;
    econfig = config;
    slots;
    up;
    stats;
    gstats;
    boot_members;
    next_client = replicas;
    client_base = replicas;
    client_slots = clients;
    spare_base = replicas + clients;
    spares;
    control = None;
    trace;
  }

let sim e = e.esim
let net e = e.enet
let membership_stats e = e.stats
let group_stats e = e.gstats
let replica_ids e =
  List.sort compare (Hashtbl.fold (fun i _ acc -> i :: acc) e.slots [])

let replica e i =
  match Hashtbl.find_opt e.slots i with
  | Some r -> r
  | None -> failwith (Printf.sprintf "Ensemble.replica: no replica at node %d" i)

let replica_up e i = Hashtbl.find_opt e.up i = Some true

let connect e ?session_timeout ~name () =
  if e.next_client >= e.client_base + e.client_slots then
    failwith "Ensemble.connect: out of client id slots";
  let id = e.next_client in
  e.next_client <- e.next_client + 1;
  Client.connect ~net:e.enet ~id ~members:(replica_ids e) ~config:e.econfig
    ?session_timeout ~name ()

let crash_replica e i =
  if replica_up e i then begin
    Hashtbl.replace e.up i false;
    Replica.stop (replica e i);
    Des.Net.crash e.enet i
  end

let restart_replica e i =
  if Hashtbl.mem e.slots i && not (replica_up e i) then begin
    Hashtbl.replace e.up i true;
    Replica.reset_volatile (replica e i);
    Des.Net.restart e.enet i;
    Replica.start (replica e i)
  end

let leader_id e =
  let best = ref None in
  Hashtbl.iter
    (fun i r ->
      if replica_up e i && Replica.is_leader r && Replica.is_member r then
        match !best with
        | Some (_, best_term) when best_term >= Replica.term r -> ()
        | Some _ | None -> best := Some (i, Replica.term r))
    e.slots;
  Option.map fst !best

let await_leader e =
  let rec wait () =
    match leader_id e with
    | Some leader -> leader
    | None ->
      Des.Proc.sleep (Types.election_timeout /. 4.);
      wait ()
  in
  wait ()

let leader_store e =
  match leader_id e with
  | Some leader -> Replica.store (replica e leader)
  | None -> failwith "Ensemble.leader_store: no leader"

let members e =
  match leader_id e with
  | Some leader -> Replica.members (replica e leader)
  | None -> replica_ids e

(* ------------------------------------------------------------------ *)
(* Dynamic membership *)

let control_client e =
  match e.control with
  | Some c when not (Client.closed c) -> c
  | Some _ | None ->
    let c = connect e ~name:"ensemble-control" () in
    e.control <- Some c;
    c

(* Config changes are serialized by the leader (one at a time); retry
   through transient [Config_pending] windows until it settles. *)
let rec settle_config e what op =
  match op (control_client e) with
  | Ok () -> ()
  | Error Types.Config_pending ->
    Des.Proc.sleep (Types.heartbeat_interval *. 2.);
    settle_config e what op
  | Error err ->
    failwith (Format.asprintf "Ensemble.%s: %a" what Types.pp_op_error err)

let add_replica e ?id () =
  let id =
    match id with
    | Some id -> id
    | None ->
      let rec find i =
        if i >= e.spare_base + e.spares then
          failwith "Ensemble.add_replica: out of spare node ids"
        else if Hashtbl.mem e.slots i then find (i + 1)
        else i
      in
      find e.spare_base
  in
  (* A fresh instance: if the node id was used before (re-adding a removed
     replica), its old incarnation dies and the node's inbox is flushed.
     The new instance boots as a learner with an empty log — it must be
     caught up by the leader before it counts toward quorum. *)
  (match Hashtbl.find_opt e.slots id with
   | Some old -> Replica.stop old
   | None -> ());
  Des.Net.crash e.enet id;
  Des.Net.restart e.enet id;
  let r =
    Replica.create ~learner:true ~stats:e.stats ~gstats:e.gstats ~net:e.enet
      ~id ~members:e.boot_members ~config:e.econfig ()
  in
  Hashtbl.replace e.slots id r;
  Hashtbl.replace e.up id true;
  Replica.start r;
  emit e "coord.join" id;
  settle_config e "add_replica" (fun c -> Client.add_replica c ~id);
  emit e "coord.joined" id;
  id

(* The removed instance is left *running*: a decommissioned server does
   not learn of its removal synchronously, and its in-flight traffic is
   exactly what the replication session ids must fence off. *)
let remove_replica e id =
  emit e "coord.leave" id;
  settle_config e "remove_replica" (fun c -> Client.remove_replica c ~id)
