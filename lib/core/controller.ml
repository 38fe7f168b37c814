let log_src = Logs.Src.create "tropic.controller" ~doc:"TROPIC controller"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
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
    repair_rules = [];
    constraint_guard_locks = true;
    repair_interval = None;
    watchdog = Watchdog.disabled;
    health = Health.disabled;
    admission = Health.no_admission;
    twopc_prepare_timeout = 60.0;
    twopc_decision_record = true;
  }


include Stats

type t = {
  cname : string;
  client : Coord.Client.t;
  gclient : Coord.Client.t;  (* global (shard 0) ensemble: 2PC state *)
  shard : Shard.t;
  ns : string;
  env : Dsl.env;
  cfg : config;
  devices : Physical.device_lookup;
  sim : Des.Sim.t;
  cpu : Des.Station.t;
  mutable tree : Data.Tree.t;
  locks : Mglock.t;
  sched : Sched.t;
  txns : (int, Txn.t) Hashtbl.t; (* live (non-terminal) transactions *)
  recon : Recon.t;
  ledger : Recovery.ledger;
  mutable next_start_seq : int;
  mutable max_request_seq : int; (* highest request item seq processed *)
  watchdog : Watchdog.t;
  health : Health.t;
  shedder : Health.shedder;
  trace : Trace.t;
  persist : Persist.t;
  twopc : Twopc.t;
  mutable leading : bool;
  mutable stopped : bool;
  mutable procs : Des.Proc.t list;
  st : stats;
}

let create ~trace ?shard ?gclient ?repair_deadline ~on_prune ~name
    ~client ~env ~(config : config) ~devices ~device_roots ~sim ~(stats : stats)
    () =
  let shard =
    match shard with
    | Some s -> s
    | None -> Shard.singleton ~roots:device_roots
  in
  let gclient = Option.value gclient ~default:client in
  let ns = Proto.ns_of_shard shard.Shard.sid in
  let persist = Persist.create ~name ~ns ~client in
  let health = Health.create ~trace ~stats config.health in
  let recon =
    Recon.create ~name ~shard ~sim ~rules:config.repair_rules
      ~deadline:repair_deadline ~constraints:(Dsl.constraints_of env) ~devices
  in
  {
    cname = name;
    client;
    gclient;
    shard;
    ns;
    env;
    cfg = config;
    devices;
    sim;
    cpu = Des.Station.create ~name:(name ^ ".cpu") sim;
    tree = Data.Tree.empty;
    locks = Mglock.create ();
    sched = Sched.create ~stats ();
    txns = Hashtbl.create 256;
    recon;
    ledger = Recovery.ledger ~name ~ns ~shard ~persist ~on_prune;
    next_start_seq = 1;
    max_request_seq = 0;
    watchdog = Watchdog.create config.watchdog;
    health;
    shedder = Health.shedder config.admission;
    trace;
    persist;
    twopc =
      Twopc.create ~trace ~stats
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

let unfinished t = Hashtbl.length t.txns + Persist.unfinished t.persist

let held t =
  Hashtbl.fold (fun id (txn : Txn.t) acc -> (id, txn.Txn.state) :: acc) t.txns []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let started_txns t =
  List.filter_map
    (fun (id, state) -> if state = Txn.Started then Some id else None)
    (held t)

let quarantined t = Recon.Quarantine.to_list (Recon.quarantine t.recon)
let in_quarantine t path = Recon.Quarantine.covers (Recon.quarantine t.recon) path
let max_request_seq t = t.max_request_seq

let persist t txn = Persist.write t.persist txn

(* A terminal transaction leaves the table as its state is set, before
   the record write, which can block on a barrier: no reader ever sees a
   terminal entry.  Persist holds the record until its window is sent;
   the next checkpoint prunes it.  After that only a 2PC shadow leaves a
   trace, its tombstone in Twopc.  This is the table Recovery.rebuild
   gives a new leader. *)
let finish t (txn : Txn.t) state =
  txn.Txn.state <- state;
  txn.Txn.finished_at <- Some (Des.Sim.now t.sim);
  Hashtbl.remove t.txns txn.Txn.id;
  Twopc.retire t.twopc txn;
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
  Recovery.fold t.ledger txn

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

let request_checkpoint t = Recovery.request_checkpoint t.ledger

(* Roll the logical layer back via the undo actions in the execution log.
   If some logical undo cannot apply, the affected subtrees are quarantined
   and the transaction is failed regardless of the physical outcome. *)
let rollback_logical t (txn : Txn.t) =
  match Logical.rollback t.env ~tree:t.tree ~log:txn.Txn.log with
  | Ok tree' ->
    t.tree <- tree';
    Ok ()
  | Error (index, reason) ->
    Recon.Quarantine.add (Recon.quarantine t.recon) (Txn.write_paths txn);
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
  if quarantine then
    Recon.Quarantine.add (Recon.quarantine t.recon) (Txn.write_paths txn);
  finish t txn state;
  release_locks t txn.Txn.id;
  (if count then
     match state with
     | Txn.Committed -> t.st.committed <- t.st.committed + 1
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
       slice never reaches this shard's phyQ.  The slice enters the tree
       now, so the shadow takes a fresh start_seq: a checkpoint taken
       since its vote does not include it. *)
    t.tree <-
      Recovery.apply_log ~name:t.cname ~what:"2pc apply" t.env t.tree txn log;
    txn.Txn.log <- log;
    txn.Txn.start_seq <- Some t.next_start_seq;
    t.next_start_seq <- t.next_start_seq + 1;
    persist t txn;
    Twopc.applied t.twopc txn.Txn.id
  | Twopc.Decide_votes (txn, snaps) -> decide_cross t txn snaps
  | Twopc.Offer gid -> Persist.offer t.persist gid
  | Twopc.End { count; txn; state; undo; quarantine } ->
    unschedule t txn.Txn.id;
    terminate t ~undo ~quarantine ~count txn state

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
          Shard.owns t.shard path && in_quarantine t path)
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
           unschedule t gid;
           Health.start t.health ~now:(Des.Sim.now t.sim) ~txn:gid ~probes:[];
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
  else if List.exists (in_quarantine t) roots then
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
  if List.exists (in_quarantine t) own_roots then begin
    Twopc.refuse t.twopc ~local:(local t) txn
      "resource quarantined pending reconciliation";
    `Finished
  end
  else begin
    let locks = List.map (fun p -> (p, Mglock.W)) own_roots in
    match Mglock.try_acquire t.locks ~txn:txn.Txn.id locks with
    | Error conflict -> park_on_conflict t txn locks conflict
    | Ok () ->
      txn.Txn.locks <- locks;
      Twopc.prepare t.twopc txn ~participants;
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
    if List.exists (fun (p, _) -> in_quarantine t p) locks
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
      let roots = write_roots t locks in
      match Health.admit t.health ~now roots with
      | `Defer tripped ->
        txn.Txn.state <- Txn.Deferred;
        ignore
          (Trace.begin_span t.trace ~txn:txn.Txn.id ~cat:"health"
             ~name:"breaker-park"
             ~attrs:
               [ ("roots", String.concat "," (List.map Data.Path.to_string tripped)) ]
             ());
        `Parked (Sched.Breaker roots)
      | `Admit probes -> (
        match Mglock.try_acquire t.locks ~txn:txn.Txn.id locks with
        | Error conflict -> park_on_conflict t txn locks conflict
        | Ok () ->
          Health.start t.health ~now ~txn:txn.Txn.id ~probes;
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
          `Started)
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
    if outcome = `Started then begin
      Persist.release t.persist;
      Persist.defer t.persist
    end;
    outcome
  in
  Sched.drain t.sched ~attempt;
  Persist.release t.persist;
  if Sched.has_wakes t.sched then schedule t

(* ------------------------------------------------------------------ *)
(* Input processing *)

(* Request items are processed in key order and their seq numbers increase
   monotonically, so anything at or below [max_request_seq] is a redelivery
   (a previous leader died after accepting but before deleting the item):
   the watermark alone fences it, finished transactions included.
   Returns true when the scheduler must run: an admitted arrival is
   attempted at once, even behind parked transactions — the drain only
   touches the ready queue, so parked ones are not re-simulated. *)
let accept_request t ~txn_id ~proc ~args =
  if txn_id <= t.max_request_seq then false
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
  | None -> () (* unknown, or already terminal *)
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
      if txn.Txn.termed then Health.forget t.health ~txn:txn_id
      else
        Health.report t.health ~now:(Des.Sim.now t.sim) ~txn:txn_id
          ~ok:(outcome = Proto.Phy_committed) ~retries:exec.Proto.retries
          ~timeouts:exec.Proto.timeouts
          (write_roots t txn.Txn.locks);
      (* A failed undo leaves the physical layer inconsistent with the
         logical one under the write set: quarantine until reconciliation. *)
      (match outcome with
       | Proto.Phy_committed -> terminate t txn Txn.Committed
       | Proto.Phy_aborted reason -> terminate t ~undo:true txn (Txn.Aborted reason)
       | Proto.Phy_failed reason ->
         terminate t ~undo:true ~quarantine:true txn (Txn.Failed reason))
    end

(* ------------------------------------------------------------------ *)
(* Signals (§4) *)

let handle_signal t ~txn_id signal =
  match Hashtbl.find_opt t.txns txn_id with
  | None -> ()
  | Some txn ->
    (* Counted once its window is durable: a new leader that applies the
       item again after a lost window is the only one to count it.  A KILL
       ends the txn, so it counts once; a TERM counts when it sets the
       flag. *)
    (match (txn.Txn.state, signal) with
     | (Txn.Accepted | Txn.Deferred | Txn.Started), Proto.Kill ->
       Persist.on_durable t.persist (fun () -> t.st.kills <- t.st.kills + 1)
     | (Txn.Accepted | Txn.Deferred | Txn.Started), Proto.Term
       when not txn.Txn.termed ->
       Persist.on_durable t.persist (fun () -> t.st.terms <- t.st.terms + 1)
     | _, (Proto.Term | Proto.Kill) -> ());
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
       (* The signal is written into the record, in this burst's window
          with the control item's delete: both land or neither does, and
          a worker reads the record before each action. *)
       (match signal with
        | Proto.Term ->
          (* Graceful: the worker stops, undoes, and reports an abort; the
             normal result path rolls back the logical layer. *)
          txn.Txn.termed <- true;
          persist t txn
        | Proto.Kill ->
          (* Immediate: abort in the logical layer only; the physical side
             is left as-is.  Recorded as Failed so the cross-layer
             inconsistency (and its quarantine) survives a controller
             fail-over until reconciliation; a decided cross-shard
             coordinator passes the verdict on to its participants.  The
             terminal record stops the worker at its next step; a worker
             that died mid-replay leaves its progress cursor to the window. *)
          terminate t ~undo:true ~quarantine:true txn
            (Txn.Failed "killed by operator");
          Persist.delete t.persist (Proto.progress_key_ns t.ns txn_id);
          Health.forget t.health ~txn:txn_id)
     | Txn.Initialized | Txn.Committed | Txn.Aborted _ | Txn.Failed _ -> ())

(* ------------------------------------------------------------------ *)
(* Recovery (idempotent; §2.3) *)

let recover t =
  (* The tree is published as it is restored — checkpoint first, then the
     replayed records — because clients read a leader's tree while it
     recovers. *)
  let checkpoint = Recovery.load_checkpoint t.client ~ns:t.ns in
  t.tree <- checkpoint.Recovery.tree;
  let records = Recovery.records ~name:t.cname t.client ~ns:t.ns in
  t.tree <-
    Recovery.replay ~name:t.cname t.env checkpoint ~shard:t.shard records;
  let r =
    Recovery.rebuild t.ledger t.client ~checkpoint ~txns:t.txns ~locks:t.locks
      ~sched:t.sched ~twopc:t.twopc records
  in
  t.next_start_seq <- r.Recovery.next_start_seq;
  t.max_request_seq <- r.Recovery.max_request_seq;
  Recon.Quarantine.add (Recon.quarantine t.recon) r.Recovery.quarantine;
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
       let txn_id =
         Proto.txn_id ~shards:t.shard.Shard.count ~sid:t.shard.Shard.sid seq
       in
       accept_request t ~txn_id ~proc ~args
     | Error reason ->
       Log.err (fun m -> m "%s: %s" t.cname reason);
       false)
  | Ok (Proto.Result { txn_id; outcome; exec }) ->
    handle_result t ~txn_id ~outcome ~exec;
    true
  | Ok (Proto.Control (Proto.Reload path)) ->
    t.tree <- Recon.reload t.recon ~locks:t.locks ~sched:t.sched t.tree path;
    true
  | Ok (Proto.Control (Proto.Repair path)) ->
    Recon.repair t.recon t.tree path;
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
     — not a KILL — is what unsticks them.  Sorted by id, so the signal
     order of one scan does not follow the table's bucket layout. *)
  let started =
    Hashtbl.fold
      (fun id (txn : Txn.t) acc ->
        if txn.Txn.state = Txn.Started && not (Twopc.is_participant txn) then
          (id, txn.Txn.log) :: acc
        else acc)
      t.txns []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Watchdog.scan t.watchdog ~now:(Des.Sim.now t.sim) ~started ~signal

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
  (* §4: inconsistencies are "detected by periodically comparing the data
     between the two layers"; the sweep enqueues their repairs. *)
  Option.iter
    (fun interval ->
      spawn_duty t ~name:"repair" ~interval (fun () ->
          List.iter
            (fun root -> enqueue_control t (Proto.Repair root))
            (Recon.sweep t.recon ~locks:t.locks t.tree)))
    t.cfg.repair_interval;
  if t.cfg.watchdog.Watchdog.enabled then
    spawn_duty t ~name:"watchdog"
      ~interval:t.cfg.watchdog.Watchdog.poll_interval (watch t);
  (* The main loop drains the re-gate's wakes on its next iteration. *)
  if t.cfg.health.Health.enabled then
    spawn_duty t ~name:"health" ~interval:t.cfg.health.Health.poll_interval
      (fun () ->
        match Health.regate t.health ~now:(Des.Sim.now t.sim) t.sched with
        | 0 -> ()
        | n ->
          Log.info (fun m ->
              m "%s: breaker released %d parked txn(s)" t.cname n));
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
    (* A checkpoint, taken between bursts so the tree and the table
       agree: the tree includes the effects of every txn started so far
       that has not rolled back. *)
    if Recovery.due t.ledger then
      Recovery.checkpoint t.ledger ~seq:(t.next_start_seq - 1)
        ~max_request_seq:t.max_request_seq ~quarantine:(quarantined t)
        ~started:(started_txns t) t.tree;
    match next_burst t with
    | [] -> ()
    | items ->
      Persist.defer t.persist;
      let need_schedule =
        List.fold_left
          (fun need (key, payload) -> process_item t ~key ~payload || need)
          false items
      in
      List.iter (fun (key, _) -> Persist.delete t.persist key) items;
      Persist.release t.persist;
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
