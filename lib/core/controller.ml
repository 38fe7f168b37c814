let log_src = Logs.Src.create "tropic.controller" ~doc:"TROPIC controller"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  checkpoint_every : int option;
  repair_rules : Recon.rule list;
  constraint_guard_locks : bool;
  repair_interval : float option;
  watchdog : Watchdog.config;
  health : Health.config;
  admission : Health.admission;
  twopc_prepare_timeout : float;
  twopc_decision_record : bool;
}

let default_config =
  {
    checkpoint_every = None;
    repair_rules = [];
    constraint_guard_locks = true;
    repair_interval = None;
    watchdog = Watchdog.disabled;
    health = Health.disabled;
    admission = Health.no_admission;
    twopc_prepare_timeout = 60.0;
    twopc_decision_record = true;
  }


type stats = {
  mutable accepted : int;
  mutable committed : int;
  mutable aborted : int;
  mutable failed : int;
  mutable deferrals : int;
  mutable violations : int;
  mutable wakeups : int;
  mutable spurious_wakeups : int;
  mutable terms : int;
  mutable kills : int;
  mutable auto_terms : int;
  mutable auto_kills : int;
  mutable exec_retries : int;
  mutable transient_failures : int;
  mutable timeouts : int;
  mutable sheds : int;
  mutable breaker_deferrals : int;
  mutable breaker_trips : int;
  mutable breaker_probes : int;
  mutable breaker_closes : int;
  mutable twopc_started : int;
  mutable twopc_committed : int;
  mutable twopc_aborted : int;
  mutable twopc_prepares : int;
  mutable take_conflicts : int;  (* worker takes that lost the race *)
  (* Per-phase latency recorders (sim seconds).  Fed from direct
     measurements — simulate and lock-wait controller-side, replay and
     undo from the worker's exec stats — so they work with no trace
     attached. *)
  simulate_lat : Metrics.Cdf.t;
  lock_wait_lat : Metrics.Cdf.t;
  replay_lat : Metrics.Cdf.t;
  undo_lat : Metrics.Cdf.t;
}

(* "p50/p99" per phase, or n/a for phases no transaction crossed. *)
let phase_summary st =
  let pair cdf = Metrics.Cdf.quantile_pair cdf ~p:0.99 in
  Printf.sprintf
    "phases[p50/p99 s]: simulate %s, lock-wait %s, replay %s, undo %s"
    (pair st.simulate_lat) (pair st.lock_wait_lat) (pair st.replay_lat)
    (pair st.undo_lat)

let fresh_stats () =
  {
    accepted = 0;
    committed = 0;
    aborted = 0;
    failed = 0;
    deferrals = 0;
    violations = 0;
    wakeups = 0;
    spurious_wakeups = 0;
    terms = 0;
    kills = 0;
    auto_terms = 0;
    auto_kills = 0;
    exec_retries = 0;
    transient_failures = 0;
    timeouts = 0;
    sheds = 0;
    breaker_deferrals = 0;
    breaker_trips = 0;
    breaker_probes = 0;
    breaker_closes = 0;
    twopc_started = 0;
    twopc_committed = 0;
    twopc_aborted = 0;
    twopc_prepares = 0;
    take_conflicts = 0;
    simulate_lat = Metrics.Cdf.create ();
    lock_wait_lat = Metrics.Cdf.create ();
    replay_lat = Metrics.Cdf.create ();
    undo_lat = Metrics.Cdf.create ();
  }

(* Sums the integer counters only: latency recorders are per shard and
   are not summed across shards. *)
let absorb_stats ~(into : stats) (src : stats) =
  into.accepted <- into.accepted + src.accepted;
  into.committed <- into.committed + src.committed;
  into.aborted <- into.aborted + src.aborted;
  into.failed <- into.failed + src.failed;
  into.deferrals <- into.deferrals + src.deferrals;
  into.violations <- into.violations + src.violations;
  into.wakeups <- into.wakeups + src.wakeups;
  into.spurious_wakeups <- into.spurious_wakeups + src.spurious_wakeups;
  into.terms <- into.terms + src.terms;
  into.kills <- into.kills + src.kills;
  into.auto_terms <- into.auto_terms + src.auto_terms;
  into.auto_kills <- into.auto_kills + src.auto_kills;
  into.exec_retries <- into.exec_retries + src.exec_retries;
  into.transient_failures <- into.transient_failures + src.transient_failures;
  into.timeouts <- into.timeouts + src.timeouts;
  into.sheds <- into.sheds + src.sheds;
  into.breaker_deferrals <- into.breaker_deferrals + src.breaker_deferrals;
  into.breaker_trips <- into.breaker_trips + src.breaker_trips;
  into.breaker_probes <- into.breaker_probes + src.breaker_probes;
  into.breaker_closes <- into.breaker_closes + src.breaker_closes;
  into.twopc_started <- into.twopc_started + src.twopc_started;
  into.twopc_committed <- into.twopc_committed + src.twopc_committed;
  into.twopc_aborted <- into.twopc_aborted + src.twopc_aborted;
  into.twopc_prepares <- into.twopc_prepares + src.twopc_prepares;
  into.take_conflicts <- into.take_conflicts + src.take_conflicts


type t = {
  cname : string;
  client : Coord.Client.t;
  gclient : Coord.Client.t;  (* global (shard 0) ensemble: 2PC state *)
  shard : Shard.t;
  ns : string;
  env : Dsl.env;
  cfg : config;
  devices : Physical.device_lookup;
  device_roots : Data.Path.t list;
  repair_deadline : float option; (* per repair step, as for worker actions *)
  sim : Des.Sim.t;
  cpu : Des.Station.t;
  mutable tree : Data.Tree.t;
  locks : Mglock.t;
  sched : Sched.t;
  txns : (int, Txn.t) Hashtbl.t;
  quarantine : Recon.Quarantine.t;
  mutable next_start_seq : int;
  mutable next_internal_txn : int; (* negative lock owners for reload *)
  mutable commits_since_checkpoint : int;
  mutable prune_candidates : string list; (* terminal record keys *)
  signaled : (int, unit) Hashtbl.t; (* txns with a pending signal key *)
  mutable max_request_seq : int; (* highest request item seq processed *)
  watchdog : Watchdog.t;
  health : Health.t;
  shedder : Health.shedder;
  started_at : (int, float) Hashtbl.t; (* Started time, for latency scores *)
  trace : Trace.t;
  persist : Persist.t;
  twopc : Twopc.t;
  mutable leading : bool;
  mutable stopped : bool;
  mutable procs : Des.Proc.t list;
  st : stats;
}

let create ~trace ?shard ?gclient ?repair_deadline ~name ~client ~env
    ~(config : config) ~devices ~device_roots ~sim ~(stats : stats) () =
  let shard =
    match shard with
    | Some s -> s
    | None -> Shard.singleton ~roots:device_roots
  in
  let gclient = Option.value gclient ~default:client in
  let ns = Proto.ns_of_shard shard.Shard.sid in
  let persist = Persist.create ~name ~ns ~client in
  let health = Health.create config.health in
  (* Breaker transitions feed the shard's counters, and the trace (system
     lane when no canary transaction is involved) when one is attached. *)
  Health.set_listener health (fun ev ->
      (match ev.Health.kind with
       | "breaker-trip" -> stats.breaker_trips <- stats.breaker_trips + 1
       | "breaker-probe" -> stats.breaker_probes <- stats.breaker_probes + 1
       | "breaker-close" -> stats.breaker_closes <- stats.breaker_closes + 1
       | _ -> ());
      Trace.instant trace
        ~txn:(Option.value ev.Health.txn ~default:0)
        ~cat:"health" ~name:ev.Health.kind
        ~attrs:[ ("root", ev.Health.root) ]
        ());
  {
    cname = name;
    client;
    gclient;
    shard;
    ns;
    env;
    cfg = config;
    devices;
    device_roots;
    repair_deadline;
    sim;
    cpu = Des.Station.create ~name:(name ^ ".cpu") sim;
    tree = Data.Tree.empty;
    locks = Mglock.create ();
    sched = Sched.create ();
    txns = Hashtbl.create 256;
    quarantine = Recon.Quarantine.create shard;
    next_start_seq = 1;
    next_internal_txn = -1;
    commits_since_checkpoint = 0;
    prune_candidates = [];
    signaled = Hashtbl.create 8;
    max_request_seq = 0;
    watchdog = Watchdog.create config.watchdog;
    health;
    shedder = Health.shedder config.admission;
    started_at = Hashtbl.create 32;
    trace;
    persist;
    twopc =
      Twopc.create ~trace
        ?barrier:
          (if gclient == client then Some (fun () -> Persist.barrier persist)
           else None)
        ~name ~gclient ~shard
        ~timeout:config.twopc_prepare_timeout
        ~record:config.twopc_decision_record sim;
    leading = false;
    stopped = false;
    procs = [];
    st = stats;
  }

let name t = t.cname
let is_leader t = t.leading
let tree t = t.tree
let stats t = t.st
let todo_length t = Sched.length t.sched
let blocked_length t = Sched.blocked_length t.sched
let lock_count t = Mglock.lock_count t.locks
let waiter_count t = Mglock.waiter_count t.locks

let lock_parked t =
  List.length
    (List.filter
       (function _, Sched.Lock _ -> true | _ -> false)
       (Sched.parked t.sched))

let cpu_busy_time t = Des.Station.busy_time t.cpu

let inflight t =
  Hashtbl.fold
    (fun _ (txn : Txn.t) n -> if txn.Txn.state = Txn.Started then n + 1 else n)
    t.txns 0

let unfinished t =
  Hashtbl.fold
    (fun _ (txn : Txn.t) n -> if Txn.is_terminal txn.Txn.state then n else n + 1)
    t.txns (Persist.unfinished t.persist)

let started_txns t =
  Hashtbl.fold
    (fun id (txn : Txn.t) acc ->
      if txn.Txn.state = Txn.Started then id :: acc else acc)
    t.txns []
  |> List.sort compare

let quarantined t = Recon.Quarantine.to_list t.quarantine

let persist t txn = Persist.write t.persist txn

let finish t (txn : Txn.t) state =
  txn.Txn.state <- state;
  txn.Txn.finished_at <- Some (Des.Sim.now t.sim);
  (* Finalization force-closes whatever the transaction still has open
     (root span, a replay cut short by a kill, a park span), so traces
     are balanced at quiescence no matter how the txn ended. *)
  let state_label, reason =
    match state with
    | Txn.Committed -> ("committed", "")
    | Txn.Aborted r -> ("aborted", r)
    | Txn.Failed r -> ("failed", r)
    | other -> (Txn.state_to_string other, "")
  in
  let attrs =
    ("state", state_label)
    :: (if reason = "" then [] else [ ("reason", reason) ])
  in
  Trace.close_all t.trace ~txn:txn.Txn.id ~attrs ();
  persist t txn;
  t.prune_candidates <- Txn.record_key_ns t.ns txn.Txn.id :: t.prune_candidates

(* ------------------------------------------------------------------ *)
(* Transaction finalization *)

(* A completion releases locks and wakes exactly the transactions parked
   on a released node; everything else stays blocked untouched — this is
   the O(woken) replacement for the old full-todo rescan.  The scheduler
   buffers the wakes until its next pass. *)
let release_locks t txn =
  Sched.wake t.sched (Mglock.release_all t.locks ~txn)

(* Drop a not-yet-started transaction from the scheduler, and from the
   lock manager's waiter index if it was parked. *)
let unschedule t id =
  match Sched.remove t.sched id with
  | `Blocked -> Mglock.cancel_wait t.locks ~txn:id
  | `Ready | `Absent -> ()

(* Device roots under a lock set's write paths — the granularity at which
   health is scored and breakers trip. *)
let write_roots t locks =
  List.filter_map
    (fun (path, mode) ->
      if mode = Mglock.W then Option.map Devices.Device.root (t.devices path)
      else None)
    locks
  |> List.sort_uniq Data.Path.compare

(* Quiescent checkpoint: when nothing is physically in flight, the logical
   tree contains exactly the committed state, so it can serve as the replay
   base and all terminal records can be pruned. *)
let maybe_checkpoint t =
  match t.cfg.checkpoint_every with
  | Some period when t.commits_since_checkpoint >= period && inflight t = 0 ->
    (* Deferred records must hit the store before the checkpoint prunes:
       a dirty record flushed after its key was pruned would resurrect a
       terminal txn the checkpoint already folded in.  The flush is also
       the barrier the checkpoint write and the prune deletes need. *)
    Persist.flush t.persist;
    let seq = t.next_start_seq - 1 in
    if Recovery.save_checkpoint ~seq t.tree t.client ~ns:t.ns then begin
      t.commits_since_checkpoint <- 0;
      List.iter
        (fun key -> ignore (Coord.Client.delete t.client ~key ()))
        t.prune_candidates;
      t.prune_candidates <- [];
      Log.info (fun m -> m "%s: checkpoint at start_seq %d" t.cname seq)
    end
  | Some _ | None -> ()

(* Roll the logical layer back via the undo actions in the execution log.
   If some logical undo cannot apply, the affected subtrees are quarantined
   and the transaction is failed regardless of the physical outcome. *)
let rollback_logical t (txn : Txn.t) =
  match Logical.rollback t.env ~tree:t.tree ~log:txn.Txn.log with
  | Ok tree' ->
    t.tree <- tree';
    Ok ()
  | Error (index, reason) ->
    Recon.Quarantine.add t.quarantine (Txn.write_paths txn);
    Error (Printf.sprintf "logical undo #%d failed: %s" index reason)

(* The one terminal transition: roll the logical layer back ([undo]; an
   undo that cannot apply fails the transaction), quarantine the write set
   when the layers diverge, persist the terminal state, release the locks
   and count the outcome ([count = false] for participant shadows, which
   the coordinator shard accounts for).  A decided cross-shard coordinator
   then hands its verdict to the participants — after its terminal record
   is durable, since they take the finish marker as license to forget. *)
let terminate t ?(undo = false) ?(quarantine = false) ?(count = true)
    (txn : Txn.t) state =
  let state =
    match (undo, state) with
    | true, (Txn.Aborted reason | Txn.Failed reason) -> (
      match rollback_logical t txn with
      | Ok () -> state
      | Error undo_reason -> Txn.Failed (reason ^ "; " ^ undo_reason))
    | _ -> state
  in
  if quarantine then Recon.Quarantine.add t.quarantine (Txn.write_paths txn);
  finish t txn state;
  release_locks t txn.Txn.id;
  (if count then
     match state with
     | Txn.Committed ->
       t.st.committed <- t.st.committed + 1;
       t.commits_since_checkpoint <- t.commits_since_checkpoint + 1;
       maybe_checkpoint t
     | Txn.Aborted _ -> t.st.aborted <- t.st.aborted + 1
     | Txn.Failed _ -> t.st.failed <- t.st.failed + 1
     | Txn.Initialized | Txn.Accepted | Txn.Deferred | Txn.Started -> ());
  if Twopc.decided t.twopc txn.Txn.id then begin
    Persist.flush t.persist;
    Twopc.finish t.twopc txn.Txn.id state
  end

let mark_started t (txn : Txn.t) ~locks =
  txn.Txn.state <- Txn.Started;
  txn.Txn.locks <- locks;
  txn.Txn.start_seq <- Some t.next_start_seq;
  t.next_start_seq <- t.next_start_seq + 1

(* Logical simulation under the CPU cost model: base + per-action, in CPU
   seconds (calibration in EXPERIMENTS.md). *)
let cpu_per_txn = 0.0027
let cpu_per_action = 0.001

let simulate t (txn : Txn.t) ~tree =
  let result =
    Logical.simulate ~guard_locks:t.cfg.constraint_guard_locks t.env ~tree
      ~proc:txn.Txn.proc ~args:txn.Txn.args
  in
  let actions =
    match result with Ok s -> s.Logical.actions | Error _ -> 0
  in
  Des.Station.request t.cpu
    ~service:(cpu_per_txn +. (cpu_per_action *. float_of_int actions));
  result

(* ------------------------------------------------------------------ *)
(* Cross-shard work the 2PC protocol hands back (see Twopc) *)

let rec local t (work : Twopc.local) =
  match work with
  | Twopc.Admit txn ->
    Hashtbl.replace t.txns txn.Txn.id txn;
    persist t txn;
    Sched.submit t.sched txn
  | Twopc.Revote txn ->
    Twopc.revote t.twopc txn
      (Twopc.snapshots t.tree (Router.arg_paths txn.Txn.args))
  | Twopc.Apply (txn, log) ->
    (* The coordinator's worker replays the full log physically, so the
       slice never reaches this shard's phyQ. *)
    t.tree <-
      Recovery.apply_log ~name:t.cname ~what:"2pc apply" t.env t.tree txn log;
    txn.Txn.log <- log;
    persist t txn;
    Twopc.applied t.twopc txn.Txn.id
  | Twopc.Decide_votes (txn, snaps) -> decide_cross t txn snaps
  | Twopc.Offer gid -> Persist.offer t.persist gid
  | Twopc.End { role; txn; state; undo; quarantine } ->
    unschedule t txn.Txn.id;
    terminate t ~undo ~quarantine ~count:(role = Twopc.Coord) txn state;
    if role <> Twopc.Part then
      t.st.twopc_aborted <- t.st.twopc_aborted + 1

(* Coordinator has every vote in: graft the participant snapshots, simulate
   the full procedure against the combined view, persist Started and reach
   the commit point. *)
and decide_cross t (txn : Txn.t) snaps =
  let gid = txn.Txn.id in
  let abort reason = Twopc.abort t.twopc ~local:(local t) txn reason in
  let sim_t0 = Des.Sim.now t.sim in
  match simulate t txn ~tree:(Twopc.graft t.tree snaps) with
  | Error reason ->
    t.st.violations <- t.st.violations + 1;
    abort reason
  | Ok { Logical.new_tree; log; locks; _ } ->
    Metrics.Cdf.add t.st.simulate_lat (Des.Sim.now t.sim -. sim_t0);
    if
      List.exists
        (fun (path, _) ->
          not (Twopc.permitted t.twopc gid (Shard.owner_of t.shard path)))
        locks
    then abort "write set escaped the prepared shards"
    else if
      List.exists
        (fun (path, _) ->
          Shard.owns t.shard path && Recon.Quarantine.covers t.quarantine path)
        locks
    then abort "resource quarantined pending reconciliation"
    else begin
      (* Swap the prepare-time root locks for the simulated lock set
         (finer-grained; includes the foreign paths in this table so local
         reconciliation serializes against the in-flight 2PC). *)
      release_locks t gid;
      match Mglock.try_acquire ~reservations:false t.locks ~txn:gid locks with
      | Error conflict ->
        abort
          (Format.asprintf "lock conflict after prepare: %a" Mglock.pp_conflict
             conflict)
      | Ok () ->
        txn.Txn.log <- log;
        mark_started t txn ~locks;
        persist t txn;
        (match Twopc.commit_point t.twopc ~local:(local t) txn log with
         | None -> ()
         | Some slices ->
           t.tree <- new_tree;
           t.st.twopc_committed <- t.st.twopc_committed + 1;
           unschedule t gid;
           Hashtbl.replace t.started_at gid (Des.Sim.now t.sim);
           Persist.offer t.persist gid;
           Twopc.announce t.twopc gid slices)
    end

let drain_twopc t = Twopc.drain t.twopc ~txns:t.txns ~local:(local t)

(* ------------------------------------------------------------------ *)
(* Scheduling (paper §3.1.1) *)

(* A re-attempt closes the park span its cause opened; a lock park's wait
   goes to the lock-wait phase recorder.  A first attempt can follow a
   park under a crashed leader, whose cause died with it: whichever park
   span that leader left open ends here. *)
let note_reattempt t (txn : Txn.t) ~woken =
  let close name = ignore (Trace.end_named t.trace ~txn:txn.Txn.id ~name ()) in
  match (woken : Sched.cause option) with
  | Some (Sched.Lock since) ->
    close "lock-wait";
    Metrics.Cdf.add t.st.lock_wait_lat (Des.Sim.now t.sim -. since)
  | Some (Sched.Breaker _) -> close "breaker-park"
  | Some Sched.Votes -> ()
  | None ->
    close "lock-wait";
    close "breaker-park"

(* Park a transaction on the lock-table node its acquisition conflicted
   at; the holder's release is the wake-up call.  A refusal by the head's
   reservation parks on the head's node and names the head as holder. *)
let park_on_conflict t (txn : Txn.t) locks (conflict : Mglock.conflict) =
  txn.Txn.state <- Txn.Deferred;
  t.st.deferrals <- t.st.deferrals + 1;
  ignore
    (Trace.begin_span t.trace ~txn:txn.Txn.id ~cat:"lock" ~name:"lock-wait"
       ~attrs:
         ([ ("path", Data.Path.to_string conflict.Mglock.path);
            ("wanted", Mglock.mode_to_string conflict.Mglock.wanted);
            ("holder", string_of_int conflict.Mglock.holder);
            ("held", Mglock.mode_to_string conflict.Mglock.held) ]
         @ if conflict.Mglock.reserved then [ ("reserved", "true") ] else [])
       ());
  Mglock.wait t.locks ~txn:txn.Txn.id ~on:conflict.Mglock.path locks;
  `Parked (Sched.Lock (Des.Sim.now t.sim))

(* Participant shadow transaction: W-lock the requested roots, persist the
   vote, reply with snapshots of the locked subtrees.  Never offered to
   the physical layer. *)
let try_start_participant t (txn : Txn.t) : Sched.attempt =
  let gid = txn.Txn.id in
  let roots = Router.arg_paths txn.Txn.args in
  let vote_no reason =
    terminate t ~count:false txn (Txn.Aborted reason);
    Twopc.vote t.twopc gid (Error reason);
    `Finished
  in
  if Twopc.coordinator t.twopc gid = None then
    (* The coordinator gave up on us (Decide abort arrived while queued). *)
    vote_no "2pc aborted before prepare"
  else if List.exists (Recon.Quarantine.covers t.quarantine) roots then
    vote_no "resource quarantined pending reconciliation"
  else begin
    let locks = List.map (fun p -> (p, Mglock.W)) roots in
    match Mglock.try_acquire t.locks ~txn:gid locks with
    | Error conflict -> park_on_conflict t txn locks conflict
    | Ok () ->
      let snaps = Twopc.snapshots t.tree roots in
      if List.length snaps <> List.length roots then
        vote_no "participant root missing from logical tree"
      else begin
        mark_started t txn ~locks;
        (* The Prepared vote is a durability promise to the coordinator:
           the record must hit the coordination service before the vote
           leaves, so it is never deferred into a batch flush. *)
        Persist.write_now t.persist txn;
        t.st.twopc_prepares <- t.st.twopc_prepares + 1;
        Twopc.vote t.twopc gid (Ok snaps);
        `Started
      end
  end

(* Coordinator admission of a cross-shard transaction: W-lock the locally
   owned roots, then fan the prepare out and park until the votes are in
   (the 2PC drain, not a lock release, finishes this transaction). *)
let try_start_cross t (txn : Txn.t) ~participants : Sched.attempt =
  let own_roots =
    Router.arg_paths txn.Txn.args
    |> List.filter (Shard.owns t.shard)
    |> List.sort_uniq Data.Path.compare
  in
  if List.exists (Recon.Quarantine.covers t.quarantine) own_roots then begin
    terminate t txn (Txn.Aborted "resource quarantined pending reconciliation");
    t.st.twopc_aborted <- t.st.twopc_aborted + 1;
    `Finished
  end
  else begin
    let locks = List.map (fun p -> (p, Mglock.W)) own_roots in
    match Mglock.try_acquire t.locks ~txn:txn.Txn.id locks with
    | Error conflict -> park_on_conflict t txn locks conflict
    | Ok () ->
      txn.Txn.locks <- locks;
      Twopc.prepare t.twopc txn ~participants;
      t.st.twopc_started <- t.st.twopc_started + 1;
      (* Parked with no lock waiter: the incoming votes (or the prepare
         timeout) resolve it. *)
      `Parked Sched.Votes
  end

let try_start_single t (txn : Txn.t) : Sched.attempt =
  let sim_t0 = Des.Sim.now t.sim in
  let sim_span =
    Trace.begin_span t.trace ~txn:txn.Txn.id ~cat:"controller" ~name:"simulate"
      ()
  in
  let end_simulate ~outcome ~actions =
    Metrics.Cdf.add t.st.simulate_lat (Des.Sim.now t.sim -. sim_t0);
    Trace.end_span t.trace
      ~attrs:
        (("outcome", outcome)
        ::
        (match actions with
         | None -> []
         | Some n -> [ ("actions", string_of_int n) ]))
      sim_span
  in
  match simulate t txn ~tree:t.tree with
  | Error reason ->
    end_simulate ~outcome:"violation" ~actions:None;
    terminate t txn (Txn.Aborted reason);
    t.st.violations <- t.st.violations + 1;
    `Finished
  | Ok { Logical.new_tree; log; locks; actions } ->
    end_simulate ~outcome:"ok" ~actions:(Some actions);
    if List.exists (fun (p, _) -> Recon.Quarantine.covers t.quarantine p) locks
    then begin
      Trace.instant t.trace ~txn:txn.Txn.id ~cat:"controller"
        ~name:"quarantine-abort" ();
      terminate t txn (Txn.Aborted "resource quarantined pending reconciliation");
      `Finished
    end
    else begin
      (* Circuit breakers gate admission to the device subtrees the write
         set touches — before lock acquisition or hardware contact.  A
         tripped subtree parks the transaction (no Mglock waiter: the
         health monitor, not a lock release, wakes it once the breaker
         ages out). *)
      let now = Des.Sim.now t.sim in
      let gates =
        List.map
          (fun root -> (root, Health.gate t.health ~now ~root))
          (write_roots t locks)
      in
      if List.exists (fun (_, g) -> g = `Defer) gates then begin
        txn.Txn.state <- Txn.Deferred;
        t.st.breaker_deferrals <- t.st.breaker_deferrals + 1;
        let roots =
          List.filter_map
            (fun (root, g) ->
              if g = `Defer then Some (Data.Path.to_string root) else None)
            gates
        in
        ignore
          (Trace.begin_span t.trace ~txn:txn.Txn.id ~cat:"health"
             ~name:"breaker-park"
             ~attrs:[ ("roots", String.concat "," roots) ]
             ());
        `Parked (Sched.Breaker (List.map fst gates))
      end
      else begin
        match Mglock.try_acquire t.locks ~txn:txn.Txn.id locks with
        | Error conflict -> park_on_conflict t txn locks conflict
        | Ok () ->
          List.iter
            (fun (root, g) ->
              if g = `Probe then
                Health.begin_probe t.health ~now ~root ~txn:txn.Txn.id)
            gates;
          Hashtbl.replace t.started_at txn.Txn.id now;
          Trace.instant t.trace ~txn:txn.Txn.id ~cat:"sched" ~name:"started"
            ~attrs:[ ("start_seq", string_of_int t.next_start_seq) ]
            ();
          txn.Txn.log <- log;
          mark_started t txn ~locks;
          persist t txn;
          t.tree <- new_tree;
          (* During a deferred drain the phyQ offer rides in the same
             multi as the Started record, so neither is visible without
             the other. *)
          Persist.offer t.persist txn.Txn.id;
          `Started
      end
    end

let try_start t (txn : Txn.t) ~woken : Sched.attempt =
  note_reattempt t txn ~woken;
  if Twopc.is_participant txn then try_start_participant t txn
  else
    match Twopc.participants_of t.twopc txn with
    | [] -> try_start_single t txn
    | participants -> try_start_cross t txn ~participants

(* One scheduler pass: the drain delivers the buffered wakes, then
   attempts every ready transaction.  Draining can release more waiters
   (participant vote-no, cross-shard decisions), so loop until no wake is
   pending. *)
let rec schedule t =
  (* The drain runs with persists deferred, and each txn it starts
     releases its own window (its Started record and phyQ offer, plus any
     records deferred before it) right after its simulate: the multi is in
     flight while the next txn simulates.  Participant prepares opt out via
     [Persist.write_now] (the vote is the durability promise). *)
  Persist.defer t.persist;
  let attempt txn ~woken =
    let outcome = try_start t txn ~woken in
    (match outcome with
     | `Started ->
       Persist.release t.persist;
       Persist.defer t.persist
     | `Parked _ when woken <> None ->
       t.st.spurious_wakeups <- t.st.spurious_wakeups + 1
     | `Parked _ | `Finished -> ());
    outcome
  in
  (* Only a lock release's wake counts: a breaker re-gate is not one. *)
  let on_wake = function
    | Sched.Lock _ -> t.st.wakeups <- t.st.wakeups + 1
    | Sched.Breaker _ | Sched.Votes -> ()
  in
  Sched.drain t.sched ~on_wake ~attempt;
  Persist.release t.persist;
  if Sched.has_wakes t.sched then schedule t

(* ------------------------------------------------------------------ *)
(* Input processing *)

(* Request items are processed in key order and their seq numbers increase
   monotonically, so anything at or below [max_request_seq] is a redelivery
   (a previous leader died after accepting but before deleting the item).
   Returns true when the scheduler must run: an admitted arrival is
   attempted at once, even behind parked transactions — the drain only
   touches the ready queue, so parked ones are not re-simulated. *)
let accept_request t ~txn_id ~proc ~args =
  if txn_id <= t.max_request_seq || Hashtbl.mem t.txns txn_id then false
  else begin
    t.max_request_seq <- txn_id;
    let txn =
      Txn.make ~id:txn_id ~proc ~args ~submitted_at:(Des.Sim.now t.sim)
    in
    Hashtbl.replace t.txns txn_id txn;
    t.st.accepted <- t.st.accepted + 1;
    (* Root span for the whole transaction lifecycle; children auto-parent
       onto it, and [finish] closes it with the terminal state. *)
    ignore (Trace.begin_span t.trace ~txn:txn_id ~cat:"txn" ~name:proc ());
    (* Admission control: past the high watermark, new arrivals get a fast
       overload abort — no locks, no hardware — so admission latency stays
       bounded under storms. *)
    let pending = Sched.length t.sched in
    if Health.shed t.shedder ~pending then begin
      Trace.instant t.trace ~txn:txn_id ~cat:"admission" ~name:"shed"
        ~attrs:[ ("pending", string_of_int pending) ]
        ();
      terminate t txn (Txn.Aborted Txn.overload_reason);
      t.st.sheds <- t.st.sheds + 1;
      false
    end
    else begin
      txn.Txn.state <- Txn.Accepted;
      Trace.instant t.trace ~txn:txn_id ~cat:"sched" ~name:"ready" ();
      persist t txn;
      Sched.submit t.sched txn;
      true
    end
  end

let handle_result t ~txn_id ~outcome ~(exec : Proto.exec_stats) =
  match Hashtbl.find_opt t.txns txn_id with
  | None -> () (* unknown or already finalized by a previous leader *)
  | Some txn ->
    if txn.Txn.state = Txn.Started then begin
      (* Accumulate the worker's robustness counters only on the first
         (effective) delivery; redeliveries after a leader crash would
         double-count otherwise. *)
      t.st.exec_retries <- t.st.exec_retries + exec.Proto.retries;
      t.st.transient_failures <-
        t.st.transient_failures + exec.Proto.transient_failures;
      t.st.timeouts <- t.st.timeouts + exec.Proto.timeouts;
      Metrics.Cdf.add t.st.replay_lat exec.Proto.replay_s;
      (match outcome with
       | Proto.Phy_aborted _ -> Metrics.Cdf.add t.st.undo_lat exec.Proto.undo_s
       | Proto.Phy_failed _ when exec.Proto.undo_s > 0. ->
         Metrics.Cdf.add t.st.undo_lat exec.Proto.undo_s
       | Proto.Phy_committed | Proto.Phy_failed _ -> ());
      (* Health scoring: fold the outcome into the written device roots.
         Operator-signaled transactions are excluded — their abort says
         nothing about device health — but must still release a canary
         claim they may hold. *)
      let now = Des.Sim.now t.sim in
      let latency =
        match Hashtbl.find_opt t.started_at txn_id with
        | Some s -> now -. s
        | None -> 0.
      in
      Hashtbl.remove t.started_at txn_id;
      if Hashtbl.mem t.signaled txn_id then
        Health.forget_probe t.health ~txn:txn_id
      else
        List.iter
          (fun root ->
            Health.observe t.health ~now ~root ~txn:txn_id
              ~ok:(outcome = Proto.Phy_committed)
              ~retries:exec.Proto.retries ~timeouts:exec.Proto.timeouts
              ~latency)
          (write_roots t txn.Txn.locks);
      (* A failed undo leaves the physical layer inconsistent with the
         logical one under the write set: quarantine until reconciliation. *)
      (match outcome with
       | Proto.Phy_committed -> terminate t txn Txn.Committed
       | Proto.Phy_aborted reason -> terminate t ~undo:true txn (Txn.Aborted reason)
       | Proto.Phy_failed reason ->
         terminate t ~undo:true ~quarantine:true txn (Txn.Failed reason));
      (* Clean up the signal marker, if one was ever written. *)
      if Hashtbl.mem t.signaled txn_id then begin
        Hashtbl.remove t.signaled txn_id;
        Persist.barrier t.persist;
        ignore
          (Coord.Client.delete t.client ~key:(Proto.signal_key_ns t.ns txn_id)
             ())
      end
    end

(* ------------------------------------------------------------------ *)
(* Signals (§4) *)

let handle_signal t ~txn_id signal =
  match Hashtbl.find_opt t.txns txn_id with
  | None -> ()
  | Some txn ->
    (match txn.Txn.state with
     | Txn.Accepted | Txn.Deferred | Txn.Started ->
       (match signal with
        | Proto.Term -> t.st.terms <- t.st.terms + 1
        | Proto.Kill -> t.st.kills <- t.st.kills + 1)
     | Txn.Initialized | Txn.Committed | Txn.Aborted _ | Txn.Failed _ -> ());
    (match txn.Txn.state with
     | Txn.Accepted | Txn.Deferred when Twopc.preparing t.twopc txn_id ->
       (* Cross-shard coordinator still gathering votes: a decided abort
          releases the participants along with the local locks. *)
       Twopc.abort t.twopc ~local:(local t) txn
         (Printf.sprintf "signal %s during prepare"
            (Proto.signal_to_string signal))
     | Txn.Accepted | Txn.Deferred ->
       (* Not yet started: nothing to roll back. *)
       unschedule t txn_id;
       terminate t txn
         (Txn.Aborted
            (Printf.sprintf "signal %s before start" (Proto.signal_to_string signal)))
     | Txn.Started ->
       Hashtbl.replace t.signaled txn_id ();
       Persist.barrier t.persist;
       ignore
         (Coord.Client.write t.client ~key:(Proto.signal_key_ns t.ns txn_id)
            ~value:(Proto.signal_to_string signal) ());
       (match signal with
        | Proto.Term ->
          (* Graceful: the worker stops, undoes, and reports an abort; the
             normal result path rolls back the logical layer. *)
          ()
        | Proto.Kill ->
          (* Immediate: abort in the logical layer only; the physical side
             is left as-is.  Recorded as Failed so the cross-layer
             inconsistency (and its quarantine) survives a controller
             fail-over until reconciliation; a decided cross-shard
             coordinator passes the verdict on to its participants. *)
          terminate t ~undo:true ~quarantine:true txn
            (Txn.Failed "killed by operator");
          Health.forget_probe t.health ~txn:txn_id;
          Hashtbl.remove t.started_at txn_id)
     | Txn.Initialized | Txn.Committed | Txn.Aborted _ | Txn.Failed _ -> ())

(* ------------------------------------------------------------------ *)
(* Reconciliation (§4) *)

let internal_lock_owner t =
  let owner = t.next_internal_txn in
  t.next_internal_txn <- t.next_internal_txn - 1;
  owner

(* Both controls act on the device subtree holding [path]. *)
let handle_reload t path =
  match t.devices path with
  | None -> Log.err (fun m -> m "%s: reload: no device at %a" t.cname Data.Path.pp path)
  | Some device ->
    let root = Devices.Device.root device in
    let owner = internal_lock_owner t in
    (match Mglock.try_acquire t.locks ~txn:owner [ (root, Mglock.W) ] with
     | Error _ ->
       Log.info (fun m ->
           m "%s: reload of %a deferred (locked)" t.cname Data.Path.pp root)
     | Ok () ->
       (match Recon.adopt (Dsl.constraints_of t.env) t.tree device with
        | Ok tree ->
          t.tree <- tree;
          Recon.Quarantine.clear t.quarantine root
        | Error (`Missing e) ->
          Log.err (fun m ->
              m "%s: reload of %a failed: %s" t.cname Data.Path.pp root
                (Data.Tree.error_to_string e))
        | Error (`Violates violation) ->
          Log.info (fun m ->
              m "%s: reload of %a aborted: %a" t.cname Data.Path.pp root
                Constraints.pp_violation violation));
       release_locks t owner)

let handle_repair t path =
  if not (Shard.owns t.shard path) then
    Log.err (fun m ->
        m "%s: repair of %a refused: foreign shard's subtree" t.cname
          Data.Path.pp path)
  else
    match t.devices path with
    | None -> Log.err (fun m -> m "%s: repair: no device at %a" t.cname Data.Path.pp path)
    | Some device ->
      let root = Devices.Device.root device in
      (match Recon.drift ~rules:t.cfg.repair_rules t.tree device with
       | Recon.Missing e ->
         Log.err (fun m ->
             m "%s: repair of %a: %s" t.cname Data.Path.pp root
               (Data.Tree.error_to_string e))
       | Recon.Same -> Recon.Quarantine.clear t.quarantine root
       | Recon.Differs plan ->
         (* Steps run under the workers' per-action deadline, so the main
            loop never hangs on a device; a failed step leaves the subtree
            quarantined for the next sweep. *)
         (match
            Recon.execute ~sim:t.sim ~deadline:t.repair_deadline device plan
          with
          | Ok () when plan.Recon.unrepaired = [] ->
            Recon.Quarantine.clear t.quarantine root
          | result ->
            Result.iter_error
              (fun (step, err) ->
                Log.err (fun m ->
                    m "%s: repair step %a failed: %s" t.cname Recon.pp_step
                      step (Devices.Device.error_to_string err)))
              result;
            Log.info (fun m ->
                m "%s: repair of %a incomplete (%d unrepaired diffs)" t.cname
                  Data.Path.pp root
                  (List.length plan.Recon.unrepaired))))

(* ------------------------------------------------------------------ *)
(* Recovery (idempotent; §2.3) *)

let recover t =
  (* The tree is published as it is restored — checkpoint first, then the
     replayed records — because clients read a leader's tree while it
     recovers. *)
  let checkpoint_seq, tree = Recovery.load_checkpoint t.client ~ns:t.ns in
  t.tree <- tree;
  let records = Recovery.records ~name:t.cname t.client ~ns:t.ns in
  t.tree <-
    Recovery.replay ~name:t.cname t.env t.tree ~checkpoint_seq ~shard:t.shard
      records;
  let r =
    Recovery.rebuild ~name:t.cname t.client ~ns:t.ns ~shard:t.shard
      ~checkpoint_seq ~txns:t.txns ~locks:t.locks ~sched:t.sched
      ~twopc:t.twopc ~persist:t.persist records
  in
  t.next_start_seq <- r.Recovery.next_start_seq;
  t.max_request_seq <- r.Recovery.max_request_seq;
  Recon.Quarantine.add t.quarantine r.Recovery.quarantine;
  t.prune_candidates <- r.Recovery.prune;
  List.iter (fun id -> Hashtbl.replace t.signaled id ()) r.Recovery.signaled;
  Log.info (fun m ->
      m "%s: recovered: %d records, todo=%d, inflight=%d, tree=%d nodes"
        t.cname (List.length records) (Sched.length t.sched) (inflight t)
        (Data.Tree.size t.tree))

(* ------------------------------------------------------------------ *)
(* Main loop *)

(* Returns true when the scheduler should run afterwards (paper §3.1.1:
   arrival into an empty queue, or a transaction completing). *)
let process_item t ~key ~payload =
  match Proto.input_of_string payload with
  | Error reason ->
    Log.err (fun m -> m "%s: bad input item %s: %s" t.cname key reason);
    false
  | Ok (Proto.Request { proc; args }) ->
    (match Proto.seq_of_item_key key with
     | Ok seq ->
       (* Transaction ids carry the shard in the residue (id mod shards =
          sid), so any party can route an id without a lookup; at one
          shard this is the identity map.  Submitting clients compute the
          same id from the enqueue key. *)
       let txn_id = (seq * t.shard.Shard.count) + t.shard.Shard.sid in
       accept_request t ~txn_id ~proc ~args
     | Error reason ->
       Log.err (fun m -> m "%s: %s" t.cname reason);
       false)
  | Ok (Proto.Result { txn_id; outcome; exec }) ->
    handle_result t ~txn_id ~outcome ~exec;
    true
  | Ok (Proto.Control (Proto.Reload path)) ->
    handle_reload t path;
    true
  | Ok (Proto.Control (Proto.Repair path)) ->
    handle_repair t path;
    true
  | Ok (Proto.Control (Proto.Signal (txn_id, signal))) ->
    handle_signal t ~txn_id signal;
    true

(* The items at the head of inputQ, at most [input_burst] of them, read in
   one round trip with process-then-delete semantics: if we crash
   mid-processing the items are re-processed by the next leader, and every
   handler above is idempotent.  Items whose delete is queued or in flight
   were processed already and are skipped.  Empty after waiting (up to a
   second) for a change when nothing is there. *)
let input_burst = 16

let next_burst t =
  let queue = Proto.input_queue_ns t.ns in
  let read () =
    Coord.Client.children_values t.client queue
      (input_burst + Persist.deleting_count t.persist)
    |> List.filter (fun (key, _) -> not (Persist.deleting t.persist key))
    |> List.filteri (fun i _ -> i < input_burst)
  in
  match read () with
  | _ :: _ as items -> items
  | [] ->
    Coord.Client.watch_children t.client queue;
    (match read () with
     | _ :: _ as items -> items
     | [] ->
       ignore (Coord.Client.await_change t.client ~timeout:1.0);
       [])

(* A leader duty: every [interval], while this instance leads. *)
let spawn_duty t ~name ~interval duty =
  let loop () =
    while not t.stopped do
      Des.Proc.sleep interval;
      if t.leading && not t.stopped then duty ()
    done
  in
  t.procs <- Des.Proc.spawn ~name:(t.cname ^ "." ^ name) t.sim loop :: t.procs

(* Controls go through inputQ like any item, so they serialize with
   transaction processing (and survive into the next leader's replay). *)
let enqueue_control t control =
  Persist.barrier t.persist;
  ignore
    (Coord.Recipes.enqueue t.client ~queue:(Proto.input_queue_ns t.ns)
       (Proto.input_to_string (Proto.Control control)))

(* §4: inconsistencies are "detected by periodically comparing the data
   between the two layers", and repair runs at an operator-chosen
   frequency.  The sweeper compares every device's exported state with the
   logical subtree (a read-only snapshot comparison) and enqueues Repair
   controls for divergent or quarantined subtrees. *)
let sweep_repairs t () =
  let device_diverged root =
    match t.devices root with
    | None -> false
    | Some device ->
      (match Recon.drift ~rules:t.cfg.repair_rules t.tree device with
       | Recon.Differs _ -> true
       | Recon.Same | Recon.Missing _ -> false)
  in
  let quarantined_roots =
    List.filter_map (fun path -> t.devices path) (quarantined t)
    |> List.map Devices.Device.root
  in
  let drifted =
    List.filter
      (fun root ->
        (* Only sweep owned subtrees — the copies this shard keeps of
           foreign subtrees go stale the moment the owner commits a
           single-shard transaction there, and "repairing" a foreign device
           against a stale copy would undo the owner's committed work.  Also
           skip subtrees with transactions physically in flight: a transient
           mismatch there is work in progress, not drift. *)
        Shard.owns t.shard root
        && Mglock.holders t.locks root = []
        && device_diverged root)
      t.device_roots
  in
  List.sort_uniq Data.Path.compare (quarantined_roots @ drifted)
  |> List.iter (fun root -> enqueue_control t (Proto.Repair root))

(* The watchdog automates §4's operator (see Watchdog): scan the in-flight
   transactions and escalate TERM → KILL on the overdue ones. *)
let watch t () =
  let signal txn_id signal =
    (match signal with
     | Proto.Term -> t.st.auto_terms <- t.st.auto_terms + 1
     | Proto.Kill -> t.st.auto_kills <- t.st.auto_kills + 1);
    Trace.instant t.trace ~txn:txn_id ~cat:"watchdog"
      ~name:(match signal with Proto.Term -> "term" | Proto.Kill -> "kill")
      ();
    Log.info (fun m ->
        m "%s: watchdog %s txn %d" t.cname (Proto.signal_to_string signal)
          txn_id);
    enqueue_control t (Proto.Signal (txn_id, signal))
  in
  (* Prepared 2PC shadow transactions are excluded: they legitimately hold
     locks until the coordinator's decision, and the presumed-abort timeout
     — not a KILL — is what unsticks them. *)
  let started =
    Hashtbl.fold
      (fun id (txn : Txn.t) acc ->
        if txn.Txn.state = Txn.Started && not (Twopc.is_participant txn) then
          (id, txn.Txn.log) :: acc
        else acc)
      t.txns []
  in
  Watchdog.scan t.watchdog ~now:(Des.Sim.now t.sim) ~started ~signal

(* Breaker-parked transactions have no lock waiter entry, so no release
   ever wakes them; this monitor re-gates them and wakes the admissible
   ones (gate is also what ages Tripped breakers into Half_open).  The
   main loop notices the pending wake on its next iteration and drains. *)
let regate_parked t () =
  let now = Des.Sim.now t.sim in
  let eligible =
    List.filter_map
      (function
        | id, Sched.Breaker roots
          when List.for_all
                 (fun root -> Health.gate t.health ~now ~root <> `Defer)
                 roots ->
          Some id
        | _ -> None)
      (Sched.parked t.sched)
  in
  if eligible <> [] then begin
    Sched.wake t.sched eligible;
    Log.info (fun m ->
        m "%s: breaker released %d parked txn(s)" t.cname
          (List.length eligible))
  end

let run t () =
  (* Shard ownership is a lease: the ephemeral sequential member node in
     the shard's election recipe.  Holding the lease IS being the shard's
     leader — exactly the pre-sharding election, one per namespace. *)
  let election = Proto.election_path_ns t.ns in
  let member =
    Coord.Recipes.join_election t.client ~election ~payload:t.cname
  in
  Coord.Recipes.await_leadership t.client ~election ~member;
  t.leading <- true;
  Log.info (fun m -> m "%s: elected leader" t.cname);
  Option.iter
    (fun interval -> spawn_duty t ~name:"repair" ~interval (sweep_repairs t))
    t.cfg.repair_interval;
  if t.cfg.watchdog.Watchdog.enabled then
    spawn_duty t ~name:"watchdog"
      ~interval:t.cfg.watchdog.Watchdog.poll_interval (watch t);
  if t.cfg.health.Health.enabled then
    spawn_duty t ~name:"health" ~interval:t.cfg.health.Health.poll_interval
      (regate_parked t);
  recover t;
  schedule t;
  (* A whole burst is processed in one pass before the scheduler runs: a
     group-commit flush delivers many results back-to-back, and one batched
     wake pass over the burst replaces a scan per item.  Txn-record
     persists are deferred across the burst and released in one window
     with the deletion of the items, so process→persist→delete holds by
     atomicity (a crash before the window is durable replays the items,
     which processing dedups).  The release does not wait: the next pass
     reads inputQ while this window is in flight. *)
  while not t.stopped do
    if drain_twopc t || Sched.has_wakes t.sched then schedule t;
    match next_burst t with
    | [] -> ()
    | items ->
      Persist.defer t.persist;
      let need_schedule =
        List.fold_left
          (fun need (key, payload) -> process_item t ~key ~payload || need)
          false items
      in
      Persist.release t.persist ~deletes:(List.map fst items);
      if (not t.stopped)
         && (drain_twopc t || need_schedule || Sched.has_wakes t.sched)
      then schedule t
  done

let start t =
  let p = Des.Proc.spawn ~name:t.cname t.sim (run t) in
  t.procs <- [ p ]

let crash t =
  t.stopped <- true;
  t.leading <- false;
  List.iter Des.Proc.kill t.procs;
  t.procs <- [];
  if t.gclient != t.client then Coord.Client.close t.gclient;
  Coord.Client.close t.client
