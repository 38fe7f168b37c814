type mode = Worker.mode = Full | Logical_only of float

type spec = {
  controllers : int;
  workers : int;
  shards : int;
  mode : mode;
  coord_config : Coord.Types.config;
  controller_config : Controller.config;
  controller_session_timeout : float;
  submit_clients : int;
  persist_clients : int; (* ignored; kept for the benchmark workloads *)
  worker_retry : Physical.retry_policy;
  trace : Trace.t option;
      (* span recorder shared by every controller, worker and coordination
         ensemble *)
}

let default_spec =
  {
    controllers = 3;
    workers = 1;
    shards = 1;
    mode = Full;
    coord_config = Coord.Types.default_config;
    controller_config = Controller.default_config;
    controller_session_timeout = 10.0;
    submit_clients = 4;
    persist_clients = 0;
    worker_retry = Physical.no_retry;
    trace = None;
  }

(* Controllers and workers live in flat shard-major arrays: shard [s]'s
   replica group occupies slots [s*n .. s*n + n-1].  A single-shard
   platform therefore has exactly the pre-sharding layout (and nemeses
   that pick random slots keep working unchanged). *)
type t = {
  psim : Des.Sim.t;
  pspec : spec;
  penv : Dsl.env;
  pdevices : Physical.device_lookup;
  pdevice_roots : Data.Path.t list;
  pshard : Shard.t;  (* base assignment, viewed from shard 0 *)
  ptrace : Trace.t;  (* [pspec.trace], or {!Trace.off} *)
  ensembles : Coord.Ensemble.t array;  (* one per shard; slot 0 is global *)
  membership : Coord.Types.membership_stats;
  group : Coord.Types.group_stats;
      (* one record each, written by every shard's ensemble *)
  control : Controller.t array;
  work : Worker.t array;
  submitters : Coord.Client.t array array;  (* per shard *)
  stats : Controller.stats array;
      (* per shard: the one counter record every controller instance of
         that shard writes, so counters survive fail-over *)
  mutable next_submitter : int;
  (* await support: key -> wakeup channels, fed by per-client dispatchers.
     Namespaced keys are globally unique, so one table serves all shards. *)
  awaiters : (string, unit Des.Channel.t list ref) Hashtbl.t;
}

let sim t = t.psim
let spec t = t.pspec
let controllers t = t.control
let workers t = t.work
let coord t = t.ensembles.(0)
let coord_ensemble t sid = t.ensembles.(sid)

let membership_stats t = t.membership
let group_commit_stats t = t.group

let shard_count t = t.pspec.shards

(* Shard responsible for a transaction: where its single-shard execution
   runs, or the coordinator (lowest touched shard) of a cross-shard one. *)
let route t ~args =
  if t.pspec.shards = 1 then 0
  else
    match Router.classify t.pshard ~args with
    | Router.Single sid -> sid
    | Router.Cross { coord; _ } -> coord

let shard_of_path t path = Shard.owner_of t.pshard path
let shard_of_txn t txn_id = txn_id mod t.pspec.shards
let ns_of_txn t txn_id = Proto.ns_of_shard (shard_of_txn t txn_id)

let controller_slots t sid =
  let n = t.pspec.controllers in
  List.init n (fun j -> (sid * n) + j)

let shard_leader_index t sid =
  List.find_opt
    (fun i -> Controller.is_leader t.control.(i))
    (controller_slots t sid)

let shard_leader t sid =
  Option.map (fun i -> t.control.(i)) (shard_leader_index t sid)

let await_shard_leader t sid =
  let rec wait () =
    match shard_leader t sid with
    | Some c -> c
    | None ->
      Des.Proc.sleep 0.25;
      wait ()
  in
  wait ()

let leader_controller t = shard_leader t 0
let await_leader_controller t = await_shard_leader t 0
let leader_index t = shard_leader_index t 0

let logical_tree t =
  match leader_controller t with
  | Some c -> Controller.tree c
  | None -> failwith "Platform.logical_tree: no leading controller"

(* The platform-wide logical tree: shard 0's view with every other
   shard's owned subtrees grafted in from that shard's leader (the local
   copies of foreign subtrees are cosmetic and go stale).  Blocks until
   every shard has a leader. *)
let composite_tree t =
  let base = Controller.tree (await_shard_leader t 0) in
  let rec graft tree sid =
    if sid >= t.pspec.shards then tree
    else begin
      let c = await_shard_leader t sid in
      let shard_tree = Controller.tree c in
      let tree =
        List.fold_left
          (fun tree root ->
            match Data.Tree.subtree shard_tree root with
            | Error _ -> tree
            | Ok node ->
              (match Data.Tree.replace_subtree tree root node with
               | Ok tree' -> tree'
               | Error _ -> tree))
          tree
          (Shard.roots_of t.pshard sid)
      in
      graft tree (sid + 1)
    end
  in
  graft base 1

let controller_cpu_busy t =
  Array.fold_left (fun acc c -> acc +. Controller.cpu_busy_time c) 0. t.control

let coord_io_busy t =
  Array.fold_left
    (fun acc ensemble ->
      match Coord.Ensemble.leader_id ensemble with
      | Some leader ->
        acc +. Coord.Replica.station_busy_time (Coord.Ensemble.replica ensemble leader)
      | None -> acc)
    0. t.ensembles

(* ------------------------------------------------------------------ *)
(* Quiescence *)

type backlog = {
  todo : int;
  blocked : int;
  inflight : int;
  unfinished : int;
  locks : int;
  waiters : int;
  input_items : int;
  phy_items : int;
}

let drained =
  { todo = 0; blocked = 0; inflight = 0; unfinished = 0; locks = 0;
    waiters = 0; input_items = 0; phy_items = 0 }

let shard_backlog t sid =
  let ensemble = t.ensembles.(sid) in
  match shard_leader t sid, Coord.Ensemble.leader_id ensemble with
  | Some c, Some _ ->
    let store = Coord.Ensemble.leader_store ensemble in
    let ns = Proto.ns_of_shard sid in
    Some
      {
        todo = Controller.todo_length c;
        blocked = Controller.blocked_length c;
        inflight = Controller.inflight c;
        unfinished = Controller.unfinished c;
        locks = Controller.lock_count c;
        waiters = Controller.waiter_count c;
        input_items = Coord.Store.count_children store (Proto.input_queue_ns ns);
        phy_items = Coord.Store.count_children store (Proto.phy_queue_ns ns);
      }
  | _ -> None

let quiescent t =
  List.for_all
    (fun sid -> shard_backlog t sid = Some drained)
    (List.init t.pspec.shards Fun.id)

let run ?until t body = Des.Proc.run ?until ~idle:(fun () -> quiescent t) t.psim body

(* ------------------------------------------------------------------ *)
(* Construction *)

let connect_controller t sid cname =
  let client =
    Coord.Ensemble.connect t.ensembles.(sid)
      ~session_timeout:t.pspec.controller_session_timeout ~name:cname ()
  in
  let gclient =
    if sid = 0 then None
    else
      Some
        (Coord.Ensemble.connect t.ensembles.(0)
           ~session_timeout:t.pspec.controller_session_timeout
           ~name:(cname ^ "-g") ())
  in
  Controller.create ~trace:t.ptrace
    ~shard:(Shard.view t.pshard ~sid)
    ?gclient ?repair_deadline:t.pspec.worker_retry.Physical.deadline
    ~name:cname ~client ~env:t.penv
    ~config:t.pspec.controller_config ~devices:t.pdevices
    ~device_roots:t.pdevice_roots ~sim:t.psim ~stats:t.stats.(sid) ()

(* Slot [i] serves shard [i / workers] at rank [i mod workers]; a restart
   reuses the slot, so it keeps the rank. *)
let connect_worker t i wname =
  let sid = i / t.pspec.workers in
  let client = Coord.Ensemble.connect t.ensembles.(sid) ~name:wname () in
  let st = t.stats.(sid) in
  Worker.create ~retry:t.pspec.worker_retry ~trace:t.ptrace
    ~ns:(Proto.ns_of_shard sid) ~rank:(i mod t.pspec.workers)
    ~on_conflict:(fun () ->
      st.Controller.take_conflicts <- st.Controller.take_conflicts + 1)
    ~name:wname ~client
    ~mode:t.pspec.mode ~devices:t.pdevices ~sim:t.psim ()

let create pspec env ~initial_tree ~devices psim =
  let pspec = { pspec with shards = max 1 pspec.shards } in
  let trace = Option.value pspec.trace ~default:Trace.off in
  let membership = Coord.Types.fresh_membership_stats () in
  let group = Coord.Types.fresh_group_stats () in
  let ensembles =
    Array.init pspec.shards (fun _ ->
        Coord.Ensemble.create ~config:pspec.coord_config
          ~stats:membership ~gstats:group ~trace psim)
  in
  let device_lookup = Physical.lookup_of_list devices in
  let device_roots = List.map Devices.Device.root devices in
  let pshard = Shard.make ~sid:0 ~shards:pspec.shards device_roots in
  let submitters =
    Array.init pspec.shards (fun sid ->
        Array.init pspec.submit_clients (fun i ->
            Coord.Ensemble.connect ensembles.(sid)
              ~name:(Printf.sprintf "submitter-%d-%d" sid i) ()))
  in
  let t =
    {
      psim;
      pspec;
      penv = env;
      pdevices = device_lookup;
      pdevice_roots = device_roots;
      pshard;
      ptrace = trace;
      ensembles;
      membership;
      group;
      control = [||];
      work = [||];
      submitters;
      stats = Array.init pspec.shards (fun _ -> Controller.fresh_stats ());
      next_submitter = 0;
      awaiters = Hashtbl.create 256;
    }
  in
  let control =
    Array.init
      (pspec.shards * pspec.controllers)
      (fun i ->
        let sid = i / pspec.controllers in
        connect_controller t sid (Printf.sprintf "controller-%d" i))
  in
  let work =
    Array.init
      (pspec.shards * pspec.workers)
      (fun i -> connect_worker t i (Printf.sprintf "worker-%d" i))
  in
  let t = { t with control; work } in
  (* Watch-event dispatcher: wake every awaiter registered on the key a
     watch fired for.  One dispatcher per submit client. *)
  Array.iteri
    (fun sid shard_submitters ->
      Array.iteri
        (fun i client ->
          ignore
            (Des.Proc.spawn
               ~name:(Printf.sprintf "await-dispatch-%d-%d" sid i)
               psim
               (fun () ->
                 let events = Coord.Client.events client in
                 while not (Coord.Client.closed client) do
                   let event = Des.Channel.recv events in
                   match
                     Hashtbl.find_opt t.awaiters event.Coord.Types.watched
                   with
                   | Some channels ->
                     List.iter (fun ch -> Des.Channel.send ch ()) !channels
                   | None -> ()
                 done)))
        shard_submitters)
    t.submitters;
  (* Bootstrap: the full initial logical tree is checkpoint 0 of {e every}
     shard; each controller group waits for its own before recovering.
     (Foreign subtrees in a shard's tree are cosmetic copies — only the
     owned roots are served, see [composite_tree].) *)
  ignore
    (Des.Proc.spawn ~name:"bootstrap" psim (fun () ->
         let save = Recovery.save_checkpoint ~seq:0 initial_tree in
         for sid = 0 to pspec.shards - 1 do
           if not (save t.submitters.(sid).(0) ~ns:(Proto.ns_of_shard sid))
           then failwith (Printf.sprintf "bootstrap of shard %d failed" sid)
         done));
  Array.iter Controller.start control;
  Array.iter Worker.start work;
  t

(* ------------------------------------------------------------------ *)
(* Client API *)

let pick_submitter t sid =
  let shard_submitters = t.submitters.(sid) in
  let client =
    shard_submitters.(t.next_submitter mod Array.length shard_submitters)
  in
  t.next_submitter <- t.next_submitter + 1;
  client

let enqueue_input t sid item =
  let client = pick_submitter t sid in
  Coord.Recipes.enqueue client
    ~queue:(Proto.input_queue_ns (Proto.ns_of_shard sid))
    (Proto.input_to_string item)

(* Transaction ids carry their shard in the residue: [id = seq * shards +
   sid].  The accepting controller derives the same id from the queue-item
   sequence number, so the platform can compute it at submit time without
   a round trip. *)
let submit t ~proc ~args =
  let sid = route t ~args in
  let key = enqueue_input t sid (Proto.Request { proc; args }) in
  match Proto.seq_of_item_key key with
  | Ok seq -> (seq * t.pspec.shards) + sid
  | Error reason -> failwith ("Platform.submit: " ^ reason)

let txn_state_via client ~ns txn_id =
  match Coord.Client.get client (Txn.record_key_ns ns txn_id) with
  | None -> None
  | Some (value, _) ->
    (match Txn.of_string value with
     | Ok txn -> Some txn.Txn.state
     | Error _ -> None)

let txn_state t txn_id =
  let sid = shard_of_txn t txn_id in
  txn_state_via (pick_submitter t sid) ~ns:(ns_of_txn t txn_id) txn_id

let register_awaiter t key channel =
  let channels =
    match Hashtbl.find_opt t.awaiters key with
    | Some existing -> existing
    | None ->
      let fresh = ref [] in
      Hashtbl.replace t.awaiters key fresh;
      fresh
  in
  channels := channel :: !channels

let unregister_awaiter t key channel =
  match Hashtbl.find_opt t.awaiters key with
  | None -> ()
  | Some channels ->
    channels := List.filter (fun ch -> ch != channel) !channels;
    if !channels = [] then Hashtbl.remove t.awaiters key

let await t txn_id =
  let sid = shard_of_txn t txn_id in
  let ns = ns_of_txn t txn_id in
  let client = pick_submitter t sid in
  let key = Txn.record_key_ns ns txn_id in
  let wakeup = Des.Channel.create () in
  register_awaiter t key wakeup;
  Fun.protect
    ~finally:(fun () -> unregister_awaiter t key wakeup)
    (fun () ->
      let rec wait () =
        match txn_state_via client ~ns txn_id with
        | Some state when Txn.is_terminal state -> state
        | Some _ | None ->
          Coord.Client.watch_key client key;
          (* Re-check: the transition may have happened before the watch was
             armed; fall back to a poll in case the event is lost. *)
          (match txn_state_via client ~ns txn_id with
           | Some state when Txn.is_terminal state -> state
           | Some _ | None ->
             ignore (Des.Channel.recv_timeout wakeup ~timeout:1.0);
             wait ())
      in
      wait ())

let run_txn t ~proc ~args =
  let txn_id = submit t ~proc ~args in
  await t txn_id

(* Submit the whole batch before awaiting any of it, so the requests are
   pipelined through the input queue and the controller can interleave
   their scheduling — the goal-state executor runs each plan wave this
   way. *)
let submit_batch t specs =
  let ids = List.map (fun (proc, args) -> submit t ~proc ~args) specs in
  List.map (fun id -> id, await t id) ids

let signal t txn_id s =
  ignore
    (enqueue_input t (shard_of_txn t txn_id)
       (Proto.Control (Proto.Signal (txn_id, s))))

let reload t path =
  ignore
    (enqueue_input t
       (Shard.owner_of t.pshard path)
       (Proto.Control (Proto.Reload path)))

let repair t path =
  ignore
    (enqueue_input t
       (Shard.owner_of t.pshard path)
       (Proto.Control (Proto.Repair path)))

let kill_controller t i = Controller.crash t.control.(i)

(* A crashed controller's coordination session is gone for good; a restart
   is a brand-new controller instance (fresh session, fresh recovery) that
   keeps the slot and the name — exactly a process supervisor restarting
   the daemon on the same machine. *)
let restart_controller t i =
  let cname = Controller.name t.control.(i) in
  let sid = i / t.pspec.controllers in
  let c = connect_controller t sid cname in
  t.control.(i) <- c;
  Controller.start c

let shard_stats t sid = t.stats.(sid)

(* Every instance writes its shard's record, so a retired instance leaves
   no counters behind. *)
let shard_retired_stats _ _ = Controller.fresh_stats ()

let kill_worker t i = Worker.crash t.work.(i)

(* Same supervisor model as [restart_controller]: the replacement worker is
   a fresh instance (new session — the old ephemeral executing markers die
   with the crashed session) under the same name and slot. *)
let restart_worker t i =
  let w = connect_worker t i (Worker.name t.work.(i)) in
  t.work.(i) <- w;
  Worker.start w
