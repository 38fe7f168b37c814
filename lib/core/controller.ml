let log_src = Logs.Src.create "tropic.controller" ~doc:"TROPIC controller"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  scheduling : [ `Fifo | `Aggressive ];
  cpu_per_txn : float;
  cpu_per_action : float;
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
    scheduling = `Fifo;
    cpu_per_txn = 0.0027;
    cpu_per_action = 0.001;
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

(* Stored-procedure name of the shadow transaction a participant shard
   runs for a cross-shard 2PC: it holds the write locks and carries the
   decided log slice, but is never offered to the physical layer (the
   coordinator's worker replays the full log). *)
let participant_proc = "__2pc_participant"
let is_participant (txn : Txn.t) = String.equal txn.Txn.proc participant_proc

type stats = {
  mutable accepted : int;
  mutable committed : int;
  mutable aborted : int;
  mutable failed : int;
  mutable deferrals : int;
  mutable violations : int;
  mutable repairs : int;
  mutable reloads : int;
  mutable wakeups : int;
  mutable spurious_wakeups : int;
  mutable retries_saved : int;
  mutable wake_passes : int;
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

(* Coordinator-side state of one in-flight cross-shard transaction. *)
type pending_2pc = {
  participants : int list;
  mutable votes : (int * (Data.Path.t * Data.Sexp.t) list) list;
      (* shard -> locked-subtree snapshots, one entry per Prepared vote *)
  mutable decided : bool;
  mutable p2_deadline : float;
}

(* Participant-side state of one prepared cross-shard transaction. *)
type part_2pc = {
  coord : int;
  mutable applied : bool;  (* commit slice applied, awaiting Finish *)
  mutable pt_deadline : float;
}

(* Work item for the persist-pool sessions (parallel record writes and
   queue-item deletes). *)
type pjob =
  | Pwrite of string * string
  | Pdelete of string
  | Penqueue of string * string  (* queue, payload: sequential create *)

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
  sim : Des.Sim.t;
  cpu : Des.Station.t;
  mutable tree : Data.Tree.t;
  locks : Mglock.t;
  sched : Sched.t;
  txns : (int, Txn.t) Hashtbl.t;
  quarantine : (string, unit) Hashtbl.t;
  mutable next_start_seq : int;
  mutable next_internal_txn : int; (* negative lock owners for reload *)
  mutable checkpoint_seq : int;
  mutable commits_since_checkpoint : int;
  mutable prune_candidates : string list; (* terminal record keys *)
  signaled : (int, unit) Hashtbl.t; (* txns with a pending signal key *)
  mutable max_request_seq : int; (* highest request item seq processed *)
  watchdog : Watchdog.t;
  health : Health.t;
  breaker_parked : (int, Data.Path.t list) Hashtbl.t;
      (* txns deferred at admission by a tripped breaker, with the device
         roots they were gated on *)
  started_at : (int, float) Hashtbl.t; (* Started time, for latency scores *)
  wait_since : (int, float) Hashtbl.t; (* lock-park time, for phase stats *)
  trace : Trace.t option;
  mutable shedding : bool; (* admission watermark hysteresis *)
  mutable wake_pending : bool; (* health monitor woke parked txns *)
  wake_buf : (int, unit) Hashtbl.t;
      (* txn ids released since the last scheduler pass; delivered to the
         scheduler in ONE deduplicated [Sched.wake] per pass instead of
         one ready-deque scan per lock release *)
  persist_pool : Coord.Client.t list;
      (* extra coordination sessions for overlapping record persists and
         item deletes across an input burst; empty = the pre-pool serial
         write path *)
  dirty : (int, Txn.t) Hashtbl.t;
      (* txns whose record changed while [defer_persists] was on; written
         (concurrently, via the pool) at the next [flush_persists] *)
  mutable defer_persists : bool;
  mutable writes_in_flight : int;
      (* record writes and queue jobs issued and not yet acked *)
  mutable phyq_buf : int list;
      (* phyQ offers buffered during a deferred scheduler drain; enqueued
         (newest first in the list, reversed on flush) only after the
         Started records they announce are durable *)
  mutable pjobs : pjob Des.Channel.t option; (* pool work queue, lazy *)
  packs : unit Des.Channel.t; (* one ack per completed pool job *)
  pending : (int, pending_2pc) Hashtbl.t; (* coordinator-side, by gid *)
  parts : (int, part_2pc) Hashtbl.t; (* participant-side, by gid *)
  mutable recovered_cross : (Txn.t * bool) list;
      (* Started cross-coordinator records found by recovery (flag: needs
         a phyQ re-offer), resolved against the decision record on the
         first 2PC drain *)
  mutable recovered_cross_terminal : Txn.t list;
      (* terminal cross-coordinator records: re-send Finish *)
  mutable leading : bool;
  mutable stopped : bool;
  mutable procs : Des.Proc.t list;
  st : stats;
}

let fresh_stats () =
  {
    accepted = 0;
    committed = 0;
    aborted = 0;
    failed = 0;
    deferrals = 0;
    violations = 0;
    repairs = 0;
    reloads = 0;
    wakeups = 0;
    spurious_wakeups = 0;
    retries_saved = 0;
    wake_passes = 0;
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
  into.repairs <- into.repairs + src.repairs;
  into.reloads <- into.reloads + src.reloads;
  into.wakeups <- into.wakeups + src.wakeups;
  into.spurious_wakeups <- into.spurious_wakeups + src.spurious_wakeups;
  into.retries_saved <- into.retries_saved + src.retries_saved;
  into.wake_passes <- into.wake_passes + src.wake_passes;
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
  into.twopc_prepares <- into.twopc_prepares + src.twopc_prepares

let create ?trace ?shard ?gclient ?(persist_pool = []) ~name ~client ~env
    ~(config : config) ~devices ~device_roots ~sim ~(stats : stats) () =
  let shard =
    match shard with
    | Some s -> s
    | None -> Shard.singleton ~roots:device_roots
  in
  let gclient = Option.value gclient ~default:client in
  let health = Health.create config.health in
  (* Breaker transitions feed the shard's counters, and the trace (system
     lane when no canary transaction is involved) when one is attached. *)
  Health.set_listener health (fun ev ->
      (match ev.Health.kind with
       | "breaker-trip" -> stats.breaker_trips <- stats.breaker_trips + 1
       | "breaker-probe" -> stats.breaker_probes <- stats.breaker_probes + 1
       | "breaker-close" -> stats.breaker_closes <- stats.breaker_closes + 1
       | _ -> ());
      Option.iter
        (fun tr ->
          Trace.instant tr
            ~txn:(Option.value ev.Health.txn ~default:0)
            ~cat:"health" ~name:ev.Health.kind
            ~attrs:[ ("root", ev.Health.root) ]
            ())
        trace);
  {
    cname = name;
    client;
    gclient;
    shard;
    ns = Proto.ns_of_shard shard.Shard.sid;
    env;
    cfg = config;
    devices;
    device_roots;
    sim;
    cpu = Des.Station.create ~name:(name ^ ".cpu") sim;
    tree = Data.Tree.empty;
    locks = Mglock.create ();
    sched = Sched.create config.scheduling;
    txns = Hashtbl.create 256;
    quarantine = Hashtbl.create 8;
    next_start_seq = 1;
    next_internal_txn = -1;
    checkpoint_seq = 0;
    commits_since_checkpoint = 0;
    prune_candidates = [];
    signaled = Hashtbl.create 8;
    max_request_seq = 0;
    watchdog = Watchdog.create config.watchdog;
    health;
    breaker_parked = Hashtbl.create 8;
    started_at = Hashtbl.create 32;
    wait_since = Hashtbl.create 32;
    trace;
    shedding = false;
    wake_pending = false;
    wake_buf = Hashtbl.create 32;
    persist_pool;
    dirty = Hashtbl.create 32;
    defer_persists = false;
    writes_in_flight = 0;
    phyq_buf = [];
    pjobs = None;
    packs = Des.Channel.create ~name:(name ^ ".packs") ();
    pending = Hashtbl.create 8;
    parts = Hashtbl.create 8;
    recovered_cross = [];
    recovered_cross_terminal = [];
    leading = false;
    stopped = false;
    procs = [];
    st = stats;
  }

let name t = t.cname
let is_leader t = t.leading
let tree t = t.tree
let shard t = t.shard
let stats t = t.st
let todo_length t = Sched.length t.sched
let blocked_length t = Sched.blocked_length t.sched
let lock_count t = Mglock.lock_count t.locks
let waiter_count t = Mglock.waiter_count t.locks
let cpu_busy_time t = Des.Station.busy_time t.cpu

let inflight t =
  Hashtbl.fold
    (fun _ (txn : Txn.t) n -> if txn.Txn.state = Txn.Started then n + 1 else n)
    t.txns 0

let unfinished t =
  Hashtbl.fold
    (fun _ (txn : Txn.t) n -> if Txn.is_terminal txn.Txn.state then n else n + 1)
    t.txns
    (t.writes_in_flight + Hashtbl.length t.dirty)

let started_txns t =
  Hashtbl.fold
    (fun id (txn : Txn.t) acc ->
      if txn.Txn.state = Txn.Started then id :: acc else acc)
    t.txns []
  |> List.sort compare

let quarantined t =
  Hashtbl.fold
    (fun key () acc ->
      match Data.Path.of_string key with Ok p -> p :: acc | Error _ -> acc)
    t.quarantine []
  |> List.sort Data.Path.compare

(* ------------------------------------------------------------------ *)
(* Persistence helpers *)

let persist_now t ~client (txn : Txn.t) =
  t.writes_in_flight <- t.writes_in_flight + 1;
  let written =
    Coord.Client.write client ~key:(Txn.record_key_ns t.ns txn.Txn.id)
      ~value:(Txn.to_string txn) ()
  in
  t.writes_in_flight <- t.writes_in_flight - 1;
  match written with
  | Ok _ -> ()
  | Error e ->
    Log.err (fun m ->
        m "%s: persisting txn %d failed: %s" t.cname txn.Txn.id
          (Format.asprintf "%a" Coord.Types.pp_op_error e))

(* While the main loop processes a burst of input items it defers txn-record
   persists into [dirty] (latest state per txn id wins); [flush_persists]
   pushes them through the session pool so the writes overlap and ride
   shared replica-side group-commit batches.  Deferral is gated on the pool
   actually existing: without one the flush would replay the same writes
   serially through the main session — no overlap, just delayed durability
   and perturbed timing — so no-pool deployments keep the synchronous write
   path bit-for-bit. *)
let deferring t = t.defer_persists && t.persist_pool <> []

let persist t (txn : Txn.t) =
  if deferring t then Hashtbl.replace t.dirty txn.Txn.id txn
  else persist_now t ~client:t.client txn

(* Run a set of coordination writes/deletes, overlapping them through the
   persist pool when one is attached; inline through the main session
   otherwise.  Blocks until every job is applied. *)
let run_coord_jobs t jobs =
  let n = List.length jobs in
  t.writes_in_flight <- t.writes_in_flight + n;
  (match (t.pjobs, jobs) with
  | _, [] -> ()
  | None, jobs ->
    List.iter
      (fun job ->
        match job with
        | Pwrite (key, value) -> (
          match Coord.Client.write t.client ~key ~value () with
          | Ok _ -> ()
          | Error e ->
            Log.err (fun m ->
                m "%s: pooled persist of %s failed: %s" t.cname key
                  (Format.asprintf "%a" Coord.Types.pp_op_error e)))
        | Pdelete key -> ignore (Coord.Client.delete t.client ~key ())
        | Penqueue (queue, payload) ->
          ignore (Coord.Recipes.enqueue t.client ~queue payload))
      jobs
  | Some chan, jobs ->
    List.iter (fun job -> Des.Channel.send chan job) jobs;
    for _ = 1 to n do
      Des.Channel.recv t.packs
    done);
  t.writes_in_flight <- t.writes_in_flight - n

let flush_persists t =
  if Hashtbl.length t.dirty > 0 then begin
    let txns = Hashtbl.fold (fun _ txn acc -> txn :: acc) t.dirty [] in
    Hashtbl.reset t.dirty;
    run_coord_jobs t
      (List.map
         (fun (txn : Txn.t) ->
           Pwrite (Txn.record_key_ns t.ns txn.Txn.id, Txn.to_string txn))
         txns)
  end

let finish t (txn : Txn.t) state =
  txn.Txn.state <- state;
  txn.Txn.finished_at <- Some (Des.Sim.now t.sim);
  Hashtbl.remove t.wait_since txn.Txn.id;
  (* Finalization force-closes whatever the transaction still has open
     (root span, a replay cut short by a kill, a park span), so traces
     are balanced at quiescence no matter how the txn ended. *)
  Option.iter
    (fun tr ->
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
      Trace.close_all tr ~txn:txn.Txn.id ~attrs ())
    t.trace;
  persist t txn;
  t.prune_candidates <- Txn.record_key_ns t.ns txn.Txn.id :: t.prune_candidates

(* ------------------------------------------------------------------ *)
(* Quarantine *)

(* Reconciliation is the owner's job: a coordinator never quarantines a
   foreign shard's subtree — its copy of foreign state is stale by design,
   and the owning shard (which saw the same failure as a participant)
   quarantines and heals its own slice. *)
let quarantine_path t path =
  if Shard.owns t.shard path then
    Hashtbl.replace t.quarantine (Data.Path.to_string path) ()

let unquarantine_subtree t path =
  let doomed =
    Hashtbl.fold
      (fun key () acc ->
        match Data.Path.of_string key with
        | Ok p when Data.Path.is_prefix path p -> key :: acc
        | Ok _ | Error _ -> acc)
      t.quarantine []
  in
  List.iter (Hashtbl.remove t.quarantine) doomed

let is_quarantined t path =
  Hashtbl.length t.quarantine > 0
  && List.exists
       (fun p -> Hashtbl.mem t.quarantine (Data.Path.to_string p))
       (path :: Data.Path.ancestors path)

(* ------------------------------------------------------------------ *)
(* Transaction finalization *)

(* A completion releases locks and wakes exactly the transactions parked
   on a released node; everything else stays blocked untouched — this is
   the O(woken) replacement for the old full-todo rescan.  [retries_saved]
   counts the blocked transactions a rescan would have re-attempted here
   for nothing.

   Released ids are *buffered*, not delivered: a burst of completions (a
   group-commit flush acking many persists at once) used to fire one
   [Sched.wake] — one ready-deque membership scan — per release.  Now each
   release merges its waiters into [wake_buf] and the scheduler pass
   drains the buffer with a single deduplicated wake ([flush_wakes]), so
   wakeup accounting counts distinct woken transactions no matter how
   many overlapping releases reported them. *)
let wake_released t woken =
  if woken <> [] then begin
    List.iter (fun id -> Hashtbl.replace t.wake_buf id ()) woken;
    t.wake_pending <- true
  end

let flush_wakes t =
  if Hashtbl.length t.wake_buf > 0 then begin
    let ids = Hashtbl.fold (fun id () acc -> id :: acc) t.wake_buf [] in
    Hashtbl.reset t.wake_buf;
    let blocked_before = Sched.blocked_length t.sched in
    let moved = Sched.wake t.sched ids in
    t.st.wake_passes <- t.st.wake_passes + 1;
    t.st.wakeups <- t.st.wakeups + moved;
    t.st.retries_saved <- t.st.retries_saved + (blocked_before - moved)
  end

let release_locks t (txn : Txn.t) =
  wake_released t (Mglock.release_all t.locks ~txn:txn.Txn.id)

let write_paths (txn : Txn.t) =
  List.filter_map
    (fun (path, mode) -> if mode = Mglock.W then Some path else None)
    txn.Txn.locks

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
  | None -> ()
  | Some period ->
    if t.commits_since_checkpoint >= period && inflight t = 0 then begin
      (* Deferred records must hit the store before the checkpoint prunes:
         a dirty record flushed after its key was pruned would resurrect a
         terminal txn the checkpoint already folded in. *)
      flush_persists t;
      let seq = t.next_start_seq - 1 in
      let snapshot =
        Data.Sexp.List
          [ Data.Sexp.of_int seq; Data.Tree.to_sexp t.tree ]
      in
      (match
         Coord.Client.write t.client ~key:(Proto.checkpoint_key_ns t.ns)
           ~value:(Data.Sexp.to_string snapshot) ()
       with
       | Ok _ ->
         t.checkpoint_seq <- seq;
         t.commits_since_checkpoint <- 0;
         List.iter
           (fun key -> ignore (Coord.Client.delete t.client ~key ()))
           t.prune_candidates;
         t.prune_candidates <- [];
         Log.info (fun m -> m "%s: checkpoint at start_seq %d" t.cname seq)
       | Error _ -> ())
    end

let commit_txn t (txn : Txn.t) =
  finish t txn Txn.Committed;
  release_locks t txn;
  t.st.committed <- t.st.committed + 1;
  t.commits_since_checkpoint <- t.commits_since_checkpoint + 1;
  maybe_checkpoint t

(* Roll the logical layer back via the undo actions in the execution log.
   If some logical undo cannot apply, the affected subtrees are quarantined
   and the transaction is failed regardless of the physical outcome. *)
let rollback_logical t (txn : Txn.t) =
  match Logical.rollback t.env ~tree:t.tree ~log:txn.Txn.log with
  | Ok tree' ->
    t.tree <- tree';
    Ok ()
  | Error (index, reason) ->
    List.iter (quarantine_path t) (write_paths txn);
    Error (Printf.sprintf "logical undo #%d failed: %s" index reason)

let abort_txn t (txn : Txn.t) reason =
  match rollback_logical t txn with
  | Ok () ->
    finish t txn (Txn.Aborted reason);
    release_locks t txn;
    t.st.aborted <- t.st.aborted + 1
  | Error undo_reason ->
    finish t txn (Txn.Failed (reason ^ "; " ^ undo_reason));
    release_locks t txn;
    t.st.failed <- t.st.failed + 1

let fail_txn t (txn : Txn.t) reason =
  (* The physical layer is now inconsistent with the logical layer under
     this transaction's write set: quarantine until reconciliation. *)
  let result = rollback_logical t txn in
  List.iter (quarantine_path t) (write_paths txn);
  (match result with
   | Ok () -> finish t txn (Txn.Failed reason)
   | Error undo_reason ->
     finish t txn (Txn.Failed (reason ^ "; " ^ undo_reason)));
  release_locks t txn;
  t.st.failed <- t.st.failed + 1

(* ------------------------------------------------------------------ *)
(* Cross-shard two-phase commit (presumed abort).

   The coordinator is the lowest-numbered shard touched by the request.
   It W-locks its own roots, then asks every other touched shard to
   prepare: the participant runs a shadow transaction that W-locks its
   roots, persists the vote, and replies with snapshots of the locked
   subtrees.  The coordinator grafts the snapshots into its logical tree,
   simulates the full procedure, persists Started, atomically creates the
   decision record (the commit point), applies the tree, offers the full
   log to its own physical layer, and sends each participant its log
   slice.  The physical outcome is propagated with Finish — a rollback
   undoes each shard's slice via the ordinary undo machinery.

   Aborts need no durable record before the commit point: a missing
   decision record means abort, and a timed-out party can close the race
   by creating the record as Abort — the atomic first-writer-wins create
   arbitrates every interleaving. *)

let twopc_instant t ~txn name =
  Option.iter
    (fun tr -> Trace.instant tr ~txn ~cat:"2pc" ~name ())
    t.trace

let send_twopc t ~shard msg =
  ignore
    (Coord.Recipes.enqueue t.gclient ~queue:(Proto.twopc_queue shard)
       (Proto.twopc_to_string msg))

let read_decision t gid =
  if not t.cfg.twopc_decision_record then None
  else
    match Coord.Client.get t.gclient (Proto.twopc_decision_key gid) with
    | None -> None
    | Some (value, _) ->
      (match Proto.decision_of_string value with
       | Ok d -> Some d
       | Error reason ->
         Log.err (fun m ->
             m "%s: corrupt 2pc decision for %d: %s" t.cname gid reason);
         None)

(* Returns the decision in force: ours if the create won, the existing
   record's otherwise.  With the decision record ablated away, every
   proposal "wins" — and is forgotten at the next crash. *)
let propose_decision t gid proposal =
  if not t.cfg.twopc_decision_record then proposal
  else
    match
      Coord.Client.create t.gclient ~key:(Proto.twopc_decision_key gid)
        ~value:(Proto.decision_to_string proposal) ()
    with
    | Ok _ -> proposal
    | Error _ -> Option.value (read_decision t gid) ~default:proposal

let write_finish t gid ~ok =
  if t.cfg.twopc_decision_record then
    ignore
      (Coord.Client.create t.gclient ~key:(Proto.twopc_finish_key gid)
         ~value:(if ok then "ok" else "rollback") ())

let read_finish t gid =
  match Coord.Client.get t.gclient (Proto.twopc_finish_key gid) with
  | Some ("ok", _) -> Some true
  | Some (_, _) -> Some false
  | None -> None

(* Coordinator-side abort before the commit point: nothing was applied to
   any tree, so only locks and the pending entry need tearing down. *)
let abort_cross t (txn : Txn.t) reason =
  let gid = txn.Txn.id in
  (match Hashtbl.find_opt t.pending gid with
   | Some p ->
     Hashtbl.remove t.pending gid;
     ignore (propose_decision t gid Proto.Abort);
     List.iter
       (fun shard ->
         send_twopc t ~shard (Proto.Decide { gid; commit = false; log = [] }))
       p.participants
   | None -> ());
  (match Sched.remove t.sched gid with
   | `Blocked -> Mglock.cancel_wait t.locks ~txn:gid
   | `Ready | `Absent -> ());
  twopc_instant t ~txn:gid "2pc-abort";
  finish t txn (Txn.Aborted reason);
  release_locks t txn;
  t.st.aborted <- t.st.aborted + 1;
  t.st.twopc_aborted <- t.st.twopc_aborted + 1

(* Participant-side terminal transitions.  These do not bump the
   client-visible committed/aborted counters: the coordinator shard
   already accounts for the transaction once. *)
let finish_participant t (txn : Txn.t) state =
  (match Sched.remove t.sched txn.Txn.id with
   | `Blocked -> Mglock.cancel_wait t.locks ~txn:txn.Txn.id
   | `Ready | `Absent -> ());
  Hashtbl.remove t.parts txn.Txn.id;
  finish t txn state;
  release_locks t txn

(* Roll a decided-and-applied participant slice back (physical replay
   failed after the commit point, or the decision turned out to be abort
   on a redelivery race). *)
let rollback_participant t (txn : Txn.t) reason =
  match rollback_logical t txn with
  | Ok () -> finish_participant t txn (Txn.Aborted reason)
  | Error undo_reason ->
    finish_participant t txn (Txn.Failed (reason ^ "; " ^ undo_reason))

(* ------------------------------------------------------------------ *)
(* Scheduling (paper §3.1.1) *)

(* A re-attempt closes the park span left open when the txn last blocked,
   and credits the wait to the lock-wait phase recorder. *)
let note_reattempt t (txn : Txn.t) =
  Option.iter
    (fun tr ->
      ignore (Trace.end_named tr ~txn:txn.Txn.id ~name:"lock-wait" ());
      ignore (Trace.end_named tr ~txn:txn.Txn.id ~name:"breaker-park" ()))
    t.trace;
  match Hashtbl.find_opt t.wait_since txn.Txn.id with
  | Some since ->
    Hashtbl.remove t.wait_since txn.Txn.id;
    Metrics.Cdf.add t.st.lock_wait_lat (Des.Sim.now t.sim -. since)
  | None -> ()

(* Park a transaction on the lock-table node its acquisition conflicted
   at; the holder's release is the wake-up call. *)
let park_on_conflict t (txn : Txn.t) (conflict : Mglock.conflict) =
  txn.Txn.state <- Txn.Deferred;
  t.st.deferrals <- t.st.deferrals + 1;
  Hashtbl.replace t.wait_since txn.Txn.id (Des.Sim.now t.sim);
  Option.iter
    (fun tr ->
      ignore
        (Trace.begin_span tr ~txn:txn.Txn.id ~cat:"lock" ~name:"lock-wait"
           ~attrs:
             [ ("path", Data.Path.to_string conflict.Mglock.path);
               ("wanted", Mglock.mode_to_string conflict.Mglock.wanted);
               ("holder", string_of_int conflict.Mglock.holder);
               ("held", Mglock.mode_to_string conflict.Mglock.held) ]
           ()))
    t.trace;
  Mglock.wait t.locks ~txn:txn.Txn.id ~on:conflict.Mglock.path

(* Participant shadow transaction: W-lock the requested roots, persist the
   vote, reply with snapshots of the locked subtrees.  Never offered to
   the physical layer. *)
let try_start_participant t (txn : Txn.t) : Sched.attempt =
  note_reattempt t txn;
  let gid = txn.Txn.id in
  match Hashtbl.find_opt t.parts gid with
  | None ->
    (* The coordinator gave up on us (Decide abort arrived while queued). *)
    finish t txn (Txn.Aborted "2pc aborted before prepare");
    `Finished
  | Some part ->
    let roots = Router.arg_paths txn.Txn.args in
    let vote_no reason =
      Hashtbl.remove t.parts gid;
      finish t txn (Txn.Aborted reason);
      send_twopc t ~shard:part.coord
        (Proto.Prepared
           { gid; shard = t.shard.Shard.sid; ok = false; reason; snaps = [] });
      `Finished
    in
    if List.exists (is_quarantined t) roots then
      vote_no "resource quarantined pending reconciliation"
    else begin
      let locks = List.map (fun p -> (p, Mglock.W)) roots in
      match Mglock.try_acquire t.locks ~txn:gid locks with
      | Error conflict ->
        park_on_conflict t txn conflict;
        `Conflict
      | Ok () ->
        let snaps =
          List.filter_map
            (fun root ->
              match Data.Tree.subtree t.tree root with
              | Ok node -> Some (root, Data.Tree.node_to_sexp node)
              | Error _ -> None)
            roots
        in
        if List.length snaps <> List.length roots then begin
          wake_released t (Mglock.release_all t.locks ~txn:gid);
          vote_no "participant root missing from logical tree"
        end
        else begin
          txn.Txn.state <- Txn.Started;
          txn.Txn.locks <- locks;
          txn.Txn.start_seq <- Some t.next_start_seq;
          t.next_start_seq <- t.next_start_seq + 1;
          (* The Prepared vote is a durability promise to the coordinator:
             the record must hit the coordination service before the vote
             leaves, so it is never deferred into a batch flush. *)
          persist_now t ~client:t.client txn;
          part.pt_deadline <-
            Des.Sim.now t.sim +. t.cfg.twopc_prepare_timeout;
          t.st.twopc_prepares <- t.st.twopc_prepares + 1;
          twopc_instant t ~txn:gid "2pc-prepared";
          send_twopc t ~shard:part.coord
            (Proto.Prepared
               { gid; shard = t.shard.Shard.sid; ok = true; reason = "";
                 snaps });
          `Started
        end
    end

(* Coordinator admission of a cross-shard transaction: W-lock the locally
   owned roots, then fan the prepare out and park until the votes are in
   (the 2PC drain, not a lock release, finishes this transaction). *)
let try_start_cross t (txn : Txn.t) ~participants : Sched.attempt =
  note_reattempt t txn;
  let gid = txn.Txn.id in
  let own_roots =
    Router.arg_paths txn.Txn.args
    |> List.filter (Shard.owns t.shard)
    |> List.sort_uniq Data.Path.compare
  in
  if List.exists (is_quarantined t) own_roots then begin
    finish t txn (Txn.Aborted "resource quarantined pending reconciliation");
    t.st.aborted <- t.st.aborted + 1;
    t.st.twopc_aborted <- t.st.twopc_aborted + 1;
    `Finished
  end
  else begin
    let locks = List.map (fun p -> (p, Mglock.W)) own_roots in
    match Mglock.try_acquire t.locks ~txn:gid locks with
    | Error conflict ->
      park_on_conflict t txn conflict;
      `Conflict
    | Ok () ->
      txn.Txn.locks <- locks;
      let now = Des.Sim.now t.sim in
      Hashtbl.replace t.pending gid
        {
          participants;
          votes = [];
          decided = false;
          p2_deadline = now +. t.cfg.twopc_prepare_timeout;
        };
      t.st.twopc_started <- t.st.twopc_started + 1;
      twopc_instant t ~txn:gid "2pc-prepare";
      List.iter
        (fun shard ->
          let roots =
            Router.arg_paths txn.Txn.args
            |> List.filter (fun p -> Shard.owner_of t.shard p = shard)
            |> List.sort_uniq Data.Path.compare
          in
          send_twopc t ~shard
            (Proto.Prepare { gid; coord = t.shard.Shard.sid; roots }))
        participants;
      (* Parked in the scheduler's blocked table with no lock waiter: the
         incoming votes (or the prepare timeout) resolve it. *)
      `Conflict
  end

let try_start_single t (txn : Txn.t) : Sched.attempt =
  note_reattempt t txn;
  let sim_t0 = Des.Sim.now t.sim in
  let sim_span =
    Option.map
      (fun tr ->
        Trace.begin_span tr ~txn:txn.Txn.id ~cat:"controller" ~name:"simulate"
          ())
      t.trace
  in
  let end_simulate ~outcome ~actions =
    Metrics.Cdf.add t.st.simulate_lat (Des.Sim.now t.sim -. sim_t0);
    match (t.trace, sim_span) with
    | Some tr, Some sid ->
      Trace.end_span tr
        ~attrs:
          (("outcome", outcome)
          ::
          (match actions with
           | None -> []
           | Some n -> [ ("actions", string_of_int n) ]))
        sid
    | _ -> ()
  in
  match
    Logical.simulate ~guard_locks:t.cfg.constraint_guard_locks t.env
      ~tree:t.tree ~proc:txn.Txn.proc ~args:txn.Txn.args
  with
  | Error reason ->
    Des.Station.request t.cpu ~service:t.cfg.cpu_per_txn;
    end_simulate ~outcome:"violation" ~actions:None;
    finish t txn (Txn.Aborted reason);
    t.st.aborted <- t.st.aborted + 1;
    t.st.violations <- t.st.violations + 1;
    `Finished
  | Ok { Logical.new_tree; log; locks; actions } ->
    (* The CPU cost model of logical simulation: base + per-action. *)
    Des.Station.request t.cpu
      ~service:(t.cfg.cpu_per_txn +. (t.cfg.cpu_per_action *. float_of_int actions));
    end_simulate ~outcome:"ok" ~actions:(Some actions);
    if List.exists (fun (path, _) -> is_quarantined t path) locks then begin
      Option.iter
        (fun tr ->
          Trace.instant tr ~txn:txn.Txn.id ~cat:"controller"
            ~name:"quarantine-abort" ())
        t.trace;
      finish t txn (Txn.Aborted "resource quarantined pending reconciliation");
      t.st.aborted <- t.st.aborted + 1;
      `Finished
    end
    else begin
      (* Circuit breakers gate admission to the device subtrees the write
         set touches — before lock acquisition or hardware contact.  A
         tripped subtree parks the transaction in the scheduler's blocked
         table (no Mglock waiter: the health monitor, not a lock release,
         wakes it once the breaker ages out). *)
      Hashtbl.remove t.breaker_parked txn.Txn.id;
      let now = Des.Sim.now t.sim in
      let gates =
        List.map
          (fun root -> (root, Health.gate t.health ~now ~root))
          (write_roots t locks)
      in
      if List.exists (fun (_, g) -> g = `Defer) gates then begin
        txn.Txn.state <- Txn.Deferred;
        t.st.breaker_deferrals <- t.st.breaker_deferrals + 1;
        Hashtbl.replace t.breaker_parked txn.Txn.id (List.map fst gates);
        Option.iter
          (fun tr ->
            let roots =
              List.filter_map
                (fun (root, g) ->
                  if g = `Defer then Some (Data.Path.to_string root) else None)
                gates
            in
            ignore
              (Trace.begin_span tr ~txn:txn.Txn.id ~cat:"health"
                 ~name:"breaker-park"
                 ~attrs:[ ("roots", String.concat "," roots) ]
                 ()))
          t.trace;
        `Conflict
      end
      else begin
        match Mglock.try_acquire t.locks ~txn:txn.Txn.id locks with
        | Error conflict ->
          park_on_conflict t txn conflict;
          `Conflict
        | Ok () ->
          List.iter
            (fun (root, g) ->
              if g = `Probe then
                Health.begin_probe t.health ~now ~root ~txn:txn.Txn.id)
            gates;
          Hashtbl.replace t.started_at txn.Txn.id now;
          Option.iter
            (fun tr ->
              Trace.instant tr ~txn:txn.Txn.id ~cat:"sched" ~name:"started"
                ~attrs:[ ("start_seq", string_of_int t.next_start_seq) ]
                ())
            t.trace;
          txn.Txn.state <- Txn.Started;
          txn.Txn.log <- log;
          txn.Txn.locks <- locks;
          txn.Txn.start_seq <- Some t.next_start_seq;
          t.next_start_seq <- t.next_start_seq + 1;
          persist t txn;
          t.tree <- new_tree;
          (* During a deferred drain the phyQ offer waits until the Started
             record is flushed (record-before-offer, same order as the
             synchronous path).  A crash between flush and offer leaves a
             Started record with no queue item — recovery's [needs_phy]
             re-offer covers exactly that window. *)
          if deferring t then t.phyq_buf <- txn.Txn.id :: t.phyq_buf
          else
            ignore
              (Coord.Recipes.enqueue t.client
                 ~queue:(Proto.phy_queue_ns t.ns)
                 (string_of_int txn.Txn.id));
          `Started
      end
    end

let try_start t (txn : Txn.t) : Sched.attempt =
  if is_participant txn then try_start_participant t txn
  else if t.shard.Shard.count = 1 then try_start_single t txn
  else
    match Router.classify t.shard ~args:txn.Txn.args with
    | Router.Single _ -> try_start_single t txn
    | Router.Cross { participants; coord } ->
      let participants =
        List.filter (fun s -> s <> t.shard.Shard.sid) (coord :: participants)
      in
      try_start_cross t txn ~participants

(* One scheduler pass: deliver the buffered wakes in a single [Sched.wake],
   then drain.  Draining can release more waiters (participant vote-no,
   cross-shard decisions), so loop until the buffer stays empty. *)
let rec schedule t =
  t.wake_pending <- false;
  flush_wakes t;
  (* The drain itself runs with persists deferred: every txn the pass
     starts batches its Started record into one pooled flush, and the phyQ
     offers follow only once those records are durable.  Participant
     prepares opt out via [persist_now] (the vote is the durability
     promise). *)
  t.defer_persists <- true;
  Sched.drain t.sched ~attempt:(try_start t) ~on_spurious:(fun _ ->
      t.st.spurious_wakeups <- t.st.spurious_wakeups + 1);
  t.defer_persists <- false;
  flush_persists t;
  (match List.rev t.phyq_buf with
   | [] -> ()
   | ids ->
     t.phyq_buf <- [];
     run_coord_jobs t
       (List.map
          (fun id -> Penqueue (Proto.phy_queue_ns t.ns, string_of_int id))
          ids));
  if Hashtbl.length t.wake_buf > 0 then schedule t

(* ------------------------------------------------------------------ *)
(* Input processing *)

(* Request items are processed in key order and their seq numbers increase
   monotonically, so anything at or below [max_request_seq] is a redelivery
   (a previous leader died after accepting but before deleting the item).
   Returns true when the scheduler must run — per §3.1.1 only when the
   transaction lands in an {e empty} todoQ; a non-empty todoQ means the head
   is deferred on a lock conflict and will be retried when a transaction
   completes, not on every arrival. *)
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
    Option.iter
      (fun tr ->
        ignore (Trace.begin_span tr ~txn:txn_id ~cat:"txn" ~name:proc ()))
      t.trace;
    (* Admission control: once the pending queue reaches the high
       watermark, shed new arrivals with a fast overload abort — no locks,
       no hardware — until it drains back to the low watermark
       (hysteresis), so admission latency stays bounded under storms. *)
    let pending = Sched.length t.sched in
    let shed =
      match t.cfg.admission.Health.queue_high with
      | None -> false
      | Some high ->
        if t.shedding then
          if pending <= t.cfg.admission.Health.queue_low then begin
            t.shedding <- false;
            false
          end
          else true
        else if pending >= high then begin
          t.shedding <- true;
          Log.info (fun m ->
              m "%s: admission shedding on (pending=%d >= high=%d)" t.cname
                pending high);
          true
        end
        else false
    in
    if shed then begin
      Option.iter
        (fun tr ->
          Trace.instant tr ~txn:txn_id ~cat:"admission" ~name:"shed"
            ~attrs:[ ("pending", string_of_int pending) ]
            ())
        t.trace;
      finish t txn (Txn.Aborted Txn.overload_reason);
      t.st.aborted <- t.st.aborted + 1;
      t.st.sheds <- t.st.sheds + 1;
      false
    end
    else begin
      txn.Txn.state <- Txn.Accepted;
      Option.iter
        (fun tr -> Trace.instant tr ~txn:txn_id ~cat:"sched" ~name:"ready" ())
        t.trace;
      persist t txn;
      Sched.submit t.sched txn
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
      (match outcome with
       | Proto.Phy_committed -> commit_txn t txn
       | Proto.Phy_aborted reason -> abort_txn t txn reason
       | Proto.Phy_failed reason -> fail_txn t txn reason);
      (* Cross-shard coordinator: propagate the physical outcome to the
         participants (rollback included — their slices undo through the
         same machinery). *)
      (match Hashtbl.find_opt t.pending txn_id with
       | Some p when p.decided ->
         Hashtbl.remove t.pending txn_id;
         let ok = txn.Txn.state = Txn.Committed in
         (* The terminal txn record must be durable before the Finish
            marker: participants take the marker as license to forget. *)
         flush_persists t;
         write_finish t txn_id ~ok;
         twopc_instant t ~txn:txn_id "2pc-finish";
         List.iter
           (fun shard ->
             send_twopc t ~shard (Proto.Finish { gid = txn_id; ok }))
           p.participants
       | Some _ | None -> ());
      (* Clean up the signal marker, if one was ever written. *)
      if Hashtbl.mem t.signaled txn_id then begin
        Hashtbl.remove t.signaled txn_id;
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
     | Txn.Accepted | Txn.Deferred when Hashtbl.mem t.pending txn_id ->
       (* Cross-shard coordinator still gathering votes: a decided abort
          releases the participants along with the local locks. *)
       abort_cross t txn
         (Printf.sprintf "signal %s during prepare"
            (Proto.signal_to_string signal))
     | Txn.Accepted | Txn.Deferred ->
       (* Not yet started: drop from the scheduler (and the lock manager's
          waiter index, if it was parked), nothing to roll back. *)
       (match Sched.remove t.sched txn_id with
        | `Blocked -> Mglock.cancel_wait t.locks ~txn:txn_id
        | `Ready | `Absent -> ());
       Hashtbl.remove t.breaker_parked txn_id;
       finish t txn
         (Txn.Aborted
            (Printf.sprintf "signal %s before start" (Proto.signal_to_string signal)));
       t.st.aborted <- t.st.aborted + 1
     | Txn.Started ->
       Hashtbl.replace t.signaled txn_id ();
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
             fail-over until reconciliation. *)
          let result = rollback_logical t txn in
          List.iter (quarantine_path t) (write_paths txn);
          (match result with
           | Ok () -> finish t txn (Txn.Failed "killed by operator")
           | Error undo_reason ->
             finish t txn (Txn.Failed ("killed by operator; " ^ undo_reason)));
          release_locks t txn;
          Health.forget_probe t.health ~txn:txn_id;
          Hashtbl.remove t.started_at txn_id;
          t.st.failed <- t.st.failed + 1)
     | Txn.Initialized | Txn.Committed | Txn.Aborted _ | Txn.Failed _ -> ())

(* ------------------------------------------------------------------ *)
(* Reconciliation (§4) *)

let internal_lock_owner t =
  let owner = t.next_internal_txn in
  t.next_internal_txn <- t.next_internal_txn - 1;
  owner

let handle_reload t path =
  match t.devices path with
  | None -> Log.err (fun m -> m "%s: reload: no device at %a" t.cname Data.Path.pp path)
  | Some device ->
    let owner = internal_lock_owner t in
    (match Mglock.try_acquire t.locks ~txn:owner [ (path, Mglock.W) ] with
     | Error _ ->
       Log.info (fun m ->
           m "%s: reload of %a deferred (locked)" t.cname Data.Path.pp path)
     | Ok () ->
       Fun.protect
         ~finally:(fun () ->
           wake_released t (Mglock.release_all t.locks ~txn:owner))
         (fun () ->
           let physical = Devices.Device.export device in
           match Data.Tree.replace_subtree t.tree path physical with
           | Error e ->
             Log.err (fun m ->
                 m "%s: reload of %a failed: %s" t.cname Data.Path.pp path
                   (Data.Tree.error_to_string e))
           | Ok candidate ->
             (match
                Constraints.check_path (Dsl.constraints_of t.env) candidate path
              with
              | violation :: _ ->
                Log.info (fun m ->
                    m "%s: reload of %a aborted: %a" t.cname Data.Path.pp path
                      Constraints.pp_violation violation)
              | [] ->
                t.tree <- candidate;
                unquarantine_subtree t path;
                t.st.reloads <- t.st.reloads + 1)))

let handle_repair t path =
  if not (Shard.owns t.shard path) then
    Log.err (fun m ->
        m "%s: repair of %a refused: foreign shard's subtree" t.cname
          Data.Path.pp path)
  else
    match t.devices path with
  | None -> Log.err (fun m -> m "%s: repair: no device at %a" t.cname Data.Path.pp path)
  | Some device ->
    (match Data.Tree.subtree t.tree path with
     | Error e ->
       Log.err (fun m ->
           m "%s: repair of %a: %s" t.cname Data.Path.pp path
             (Data.Tree.error_to_string e))
     | Ok logical ->
       let physical = Devices.Device.export device in
       let plan =
         Recon.plan_repair ~rules:t.cfg.repair_rules ~at:path ~logical ~physical
       in
       let all_ok =
         List.for_all
           (fun (step : Recon.step) ->
             match
               Devices.Device.invoke device ~action:step.Recon.action
                 ~args:step.Recon.args
             with
             | Ok () ->
               t.st.repairs <- t.st.repairs + 1;
               true
             | Error err ->
               Log.err (fun m ->
                   m "%s: repair step %a failed: %s" t.cname Recon.pp_step step
                     (Devices.Device.error_to_string err));
               false)
           plan.Recon.steps
       in
       if all_ok && plan.Recon.unrepaired = [] then
         unquarantine_subtree t path
       else
         Log.info (fun m ->
             m "%s: repair of %a incomplete (%d unrepaired diffs)" t.cname
               Data.Path.pp path
               (List.length plan.Recon.unrepaired)))

(* ------------------------------------------------------------------ *)
(* Recovery (idempotent; §2.3) *)

let load_checkpoint t =
  let rec wait () =
    match Coord.Client.get t.client (Proto.checkpoint_key_ns t.ns) with
    | Some (value, _) ->
      (match Data.Sexp.of_string value with
       | Ok (Data.Sexp.List [ seq; tree ]) ->
         (match Data.Sexp.to_int seq, Data.Tree.of_sexp tree with
          | Ok seq, Ok tree ->
            t.checkpoint_seq <- seq;
            t.next_start_seq <- seq + 1;
            t.tree <- tree
          | _, _ -> failwith "corrupt checkpoint")
       | Ok _ | Error _ -> failwith "corrupt checkpoint")
    | None ->
      (* The platform bootstrap has not written the initial checkpoint yet. *)
      Des.Proc.sleep 0.2;
      wait ()
  in
  wait ()

let recover t =
  load_checkpoint t;
  let is_cross (txn : Txn.t) =
    (not (is_participant txn))
    && t.shard.Shard.count > 1
    && Router.is_cross t.shard ~args:txn.Txn.args
  in
  let record_keys =
    Coord.Client.get_children t.client (Proto.txns_prefix_ns t.ns)
  in
  let records =
    List.filter_map
      (fun key ->
        match Coord.Client.get t.client key with
        | None -> None
        | Some (value, _) ->
          (match Txn.of_string value with
           | Ok txn -> Some txn
           | Error reason ->
             Log.err (fun m -> m "%s: corrupt record %s: %s" t.cname key reason);
             None))
      record_keys
  in
  (* Replay the logical effects of everything at-or-beyond Started, in the
     order the previous leaders started them. *)
  let replayable =
    List.filter
      (fun (txn : Txn.t) ->
        (match txn.Txn.state with
         | Txn.Started | Txn.Committed -> true
         | Txn.Initialized | Txn.Accepted | Txn.Deferred
         | Txn.Aborted _ | Txn.Failed _ -> false)
        && match txn.Txn.start_seq with
           | Some seq -> seq > t.checkpoint_seq
           | None -> false)
      records
    |> List.sort (fun (a : Txn.t) b ->
           compare a.Txn.start_seq b.Txn.start_seq)
  in
  List.iter
    (fun (txn : Txn.t) ->
      (* A cross-shard coordinator log replays own-slice-only: the foreign
         records were simulated against participant snapshots that are not
         part of this shard's checkpoint lineage (the foreign subtrees of
         the local tree are cosmetic copies). *)
      let log =
        if is_cross txn then Xlog.slice txn.Txn.log ~keep:(Shard.owns t.shard)
        else txn.Txn.log
      in
      List.iter
        (fun record ->
          match Dsl.apply_record t.env t.tree record with
          | Ok tree' -> t.tree <- tree'
          | Error reason ->
            Log.err (fun m ->
                m "%s: recovery replay of txn %d failed: %s" t.cname
                  txn.Txn.id reason))
        log)
    replayable;
  (* Rebuild scheduler and lock state; figure out which Started txns still
     need to be (re)offered to the physical layer. *)
  let phy_ids =
    List.filter_map
      (fun key ->
        match Coord.Client.get t.client key with
        | Some (value, _) -> int_of_string_opt value
        | None -> None)
      (Coord.Client.get_children t.client (Proto.phy_queue_ns t.ns))
  in
  let result_ids =
    List.filter_map
      (fun key ->
        match Coord.Client.get t.client key with
        | Some (value, _) ->
          (match Proto.input_of_string value with
           | Ok (Proto.Result { txn_id; _ }) -> Some txn_id
           | Ok (Proto.Request _ | Proto.Control _) | Error _ -> None)
        | None -> None)
      (Coord.Client.get_children t.client (Proto.input_queue_ns t.ns))
  in
  let max_seq = ref t.checkpoint_seq in
  List.iter
    (fun (txn : Txn.t) ->
      (match txn.Txn.start_seq with
       | Some seq when seq > !max_seq -> max_seq := seq
       | Some _ | None -> ());
      match txn.Txn.state with
      | Txn.Accepted | Txn.Deferred ->
        (* Re-derive the blocked set rather than persist it: the txn goes
           back to the ready queue and the first post-recovery drain either
           starts it or re-parks it on its (rebuilt) conflict.  (A queued
           cross-shard coordinator simply re-runs its prepare round — the
           decision record arbitrates against any earlier attempt.) *)
        Hashtbl.replace t.txns txn.Txn.id txn;
        if is_participant txn then
          Hashtbl.replace t.parts txn.Txn.id
            {
              coord = txn.Txn.id mod t.shard.Shard.count;
              applied = false;
              pt_deadline =
                Des.Sim.now t.sim +. t.cfg.twopc_prepare_timeout;
            };
        ignore (Sched.submit t.sched txn)
      | Txn.Started ->
        Hashtbl.replace t.txns txn.Txn.id txn;
        (match Mglock.try_acquire t.locks ~txn:txn.Txn.id txn.Txn.locks with
         | Ok () -> ()
         | Error conflict ->
           Log.err (fun m ->
               m "%s: recovery lock conflict for txn %d: %a" t.cname
                 txn.Txn.id Mglock.pp_conflict conflict));
        let executing =
          Option.is_some
            (Coord.Client.get t.client (Proto.executing_key_ns t.ns txn.Txn.id))
        in
        let needs_phy =
          (not executing)
          && (not (List.mem txn.Txn.id phy_ids))
          && not (List.mem txn.Txn.id result_ids)
        in
        if is_participant txn then
          (* A prepared shadow transaction: never physical; rebuild the
             side state with an already-expired deadline, so the first
             drain consults the decision record. *)
          Hashtbl.replace t.parts txn.Txn.id
            {
              coord = txn.Txn.id mod t.shard.Shard.count;
              applied = txn.Txn.log <> [];
              pt_deadline = Des.Sim.now t.sim;
            }
        else if is_cross txn then
          (* Coordinator of an in-flight cross-shard transaction: the
             decision record (or its absence — presumed abort) resolves it
             on the first 2PC drain. *)
          t.recovered_cross <- (txn, needs_phy) :: t.recovered_cross
        else if needs_phy then
          ignore
            (Coord.Recipes.enqueue t.client ~queue:(Proto.phy_queue_ns t.ns)
               (string_of_int txn.Txn.id))
      | Txn.Failed _ ->
        (* A failed transaction left the layers inconsistent under its
           write set; a new leader must not serve those resources until
           reconciliation.  Conservative: if the previous leader already
           reconciled but had not yet checkpointed the record away, the
           subtree needs another reload. *)
        List.iter (quarantine_path t) (write_paths txn);
        if is_cross txn then
          t.recovered_cross_terminal <- txn :: t.recovered_cross_terminal;
        t.prune_candidates <-
          Txn.record_key_ns t.ns txn.Txn.id :: t.prune_candidates
      | Txn.Committed | Txn.Aborted _ ->
        if is_cross txn then
          t.recovered_cross_terminal <- txn :: t.recovered_cross_terminal;
        t.prune_candidates <-
          Txn.record_key_ns t.ns txn.Txn.id :: t.prune_candidates
      | Txn.Initialized -> ())
    (List.sort (fun (a : Txn.t) b -> compare a.Txn.id b.Txn.id) records);
  t.next_start_seq <- !max_seq + 1;
  (* Only this shard's own request stream advances the redelivery
     watermark: participant shadow records carry the coordinator's gid —
     a different residue class, numbered by a different submitter — and
     letting one of those (often far larger) ids in would make the new
     leader silently drop every later locally-numbered request as a
     redelivery. *)
  List.iter
    (fun (txn : Txn.t) ->
      if
        txn.Txn.id mod t.shard.Shard.count = t.shard.Shard.sid
        && txn.Txn.id > t.max_request_seq
      then t.max_request_seq <- txn.Txn.id)
    records;
  List.iter
    (fun key ->
      match Proto.seq_of_item_key key with
      | Ok txn_id -> Hashtbl.replace t.signaled txn_id ()
      | Error _ -> ())
    (Coord.Client.get_children t.client (Proto.signals_prefix_ns t.ns));
  Log.info (fun m ->
      m "%s: recovered: %d records, todo=%d, inflight=%d, tree=%d nodes"
        t.cname (List.length records) (Sched.length t.sched) (inflight t)
        (Data.Tree.size t.tree))

(* ------------------------------------------------------------------ *)
(* 2PC message handling (drained from this shard's durable mailbox) *)

let subtree_snaps t roots =
  List.filter_map
    (fun root ->
      match Data.Tree.subtree t.tree root with
      | Ok node -> Some (root, Data.Tree.node_to_sexp node)
      | Error _ -> None)
    roots

(* Participant: apply the coordinator's decided log slice to the logical
   tree.  The coordinator's worker replays the full log physically, so the
   slice never reaches this shard's phyQ. *)
let apply_participant_slice t (txn : Txn.t) (part : part_2pc) log =
  List.iter
    (fun record ->
      match Dsl.apply_record t.env t.tree record with
      | Ok tree' -> t.tree <- tree'
      | Error reason ->
        Log.err (fun m ->
            m "%s: 2pc apply for txn %d failed: %s" t.cname txn.Txn.id reason))
    log;
  txn.Txn.log <- log;
  persist t txn;
  part.applied <- true;
  part.pt_deadline <- Des.Sim.now t.sim +. t.cfg.twopc_prepare_timeout;
  twopc_instant t ~txn:txn.Txn.id "2pc-applied"

(* Participant receives a Prepare.  First delivery spawns the shadow
   transaction; redeliveries (process-then-delete, coordinator retry after
   fail-over) re-vote from current state. *)
let handle_prepare t ~gid ~coord ~roots =
  match Hashtbl.find_opt t.txns gid with
  | Some txn ->
    (match Hashtbl.find_opt t.parts gid with
     | Some part when txn.Txn.state = Txn.Started && not part.applied ->
       send_twopc t ~shard:coord
         (Proto.Prepared
            {
              gid;
              shard = t.shard.Shard.sid;
              ok = true;
              reason = "";
              snaps = subtree_snaps t (Router.arg_paths txn.Txn.args);
            })
     | Some _ -> ()
     | None ->
       (match txn.Txn.state with
        | Txn.Aborted reason ->
          send_twopc t ~shard:coord
            (Proto.Prepared
               { gid; shard = t.shard.Shard.sid; ok = false; reason; snaps = [] })
        | Txn.Initialized | Txn.Accepted | Txn.Deferred | Txn.Started
        | Txn.Committed | Txn.Failed _ -> ()));
    false
  | None ->
    let args =
      List.map (fun p -> Data.Value.Str (Data.Path.to_string p)) roots
    in
    let txn =
      Txn.make ~id:gid ~proc:participant_proc ~args
        ~submitted_at:(Des.Sim.now t.sim)
    in
    txn.Txn.state <- Txn.Accepted;
    Hashtbl.replace t.txns gid txn;
    Hashtbl.replace t.parts gid
      {
        coord;
        applied = false;
        pt_deadline = Des.Sim.now t.sim +. t.cfg.twopc_prepare_timeout;
      };
    persist t txn;
    ignore (Sched.submit t.sched txn);
    true

(* Coordinator has every vote in: graft the participant snapshots, simulate
   the full procedure against the combined view, and atomically create the
   decision record — the commit point of the whole transaction. *)
let decide_cross t (txn : Txn.t) (p : pending_2pc) =
  let gid = txn.Txn.id in
  let abort reason = abort_cross t txn reason in
  let grafted =
    List.fold_left
      (fun tree (_, snaps) ->
        List.fold_left
          (fun tree (path, sexp) ->
            match Data.Tree.node_of_sexp sexp with
            | Error _ -> tree
            | Ok node ->
              (match Data.Tree.replace_subtree tree path node with
               | Ok tree' -> tree'
               | Error _ -> tree))
          tree snaps)
      t.tree p.votes
  in
  let sim_t0 = Des.Sim.now t.sim in
  match
    Logical.simulate ~guard_locks:t.cfg.constraint_guard_locks t.env
      ~tree:grafted ~proc:txn.Txn.proc ~args:txn.Txn.args
  with
  | Error reason ->
    Des.Station.request t.cpu ~service:t.cfg.cpu_per_txn;
    t.st.violations <- t.st.violations + 1;
    abort reason
  | Ok { Logical.new_tree; log; locks; actions } ->
    Des.Station.request t.cpu
      ~service:
        (t.cfg.cpu_per_txn +. (t.cfg.cpu_per_action *. float_of_int actions));
    Metrics.Cdf.add t.st.simulate_lat (Des.Sim.now t.sim -. sim_t0);
    let permitted sid =
      sid = t.shard.Shard.sid || List.mem sid p.participants
    in
    if
      List.exists
        (fun (path, _) -> not (permitted (Shard.owner_of t.shard path)))
        locks
    then abort "write set escaped the prepared shards"
    else if
      List.exists
        (fun (path, _) -> Shard.owns t.shard path && is_quarantined t path)
        locks
    then abort "resource quarantined pending reconciliation"
    else begin
      (* Swap the prepare-time root locks for the simulated lock set
         (finer-grained; includes the foreign paths in this table so local
         reconciliation serializes against the in-flight 2PC). *)
      wake_released t (Mglock.release_all t.locks ~txn:gid);
      match Mglock.try_acquire t.locks ~txn:gid locks with
      | Error conflict ->
        abort
          (Format.asprintf "lock conflict after prepare: %a" Mglock.pp_conflict
             conflict)
      | Ok () ->
        txn.Txn.state <- Txn.Started;
        txn.Txn.log <- log;
        txn.Txn.locks <- locks;
        txn.Txn.start_seq <- Some t.next_start_seq;
        t.next_start_seq <- t.next_start_seq + 1;
        persist t txn;
        let slices =
          List.map
            (fun sid ->
              ( sid,
                Xlog.slice log ~keep:(fun path ->
                    Shard.owner_of t.shard path = sid) ))
            p.participants
        in
        (match propose_decision t gid (Proto.Commit slices) with
         | Proto.Abort ->
           (* A timed-out participant presumed abort first; obey the
              record.  The tree was never applied, so nothing rolls back. *)
           Hashtbl.remove t.pending gid;
           (match Sched.remove t.sched gid with
            | `Blocked -> Mglock.cancel_wait t.locks ~txn:gid
            | `Ready | `Absent -> ());
           twopc_instant t ~txn:gid "2pc-abort";
           finish t txn (Txn.Aborted "2pc decision lost to presumed abort");
           release_locks t txn;
           t.st.aborted <- t.st.aborted + 1;
           t.st.twopc_aborted <- t.st.twopc_aborted + 1;
           List.iter
             (fun sid ->
               send_twopc t ~shard:sid
                 (Proto.Decide { gid; commit = false; log = [] }))
             p.participants
         | Proto.Commit _ ->
           p.decided <- true;
           p.p2_deadline <- Des.Sim.now t.sim +. t.cfg.twopc_prepare_timeout;
           t.tree <- new_tree;
           t.st.twopc_committed <- t.st.twopc_committed + 1;
           (match Sched.remove t.sched gid with
            | `Blocked -> Mglock.cancel_wait t.locks ~txn:gid
            | `Ready | `Absent -> ());
           Hashtbl.replace t.started_at gid (Des.Sim.now t.sim);
           twopc_instant t ~txn:gid "2pc-decide-commit";
           ignore
             (Coord.Recipes.enqueue t.client ~queue:(Proto.phy_queue_ns t.ns)
                (string_of_int gid));
           List.iter
             (fun sid ->
               let log = Option.value (List.assoc_opt sid slices) ~default:[] in
               send_twopc t ~shard:sid (Proto.Decide { gid; commit = true; log }))
             p.participants)
    end

(* Coordinator receives a vote. *)
let handle_prepared t ~gid ~shard ~ok ~reason ~snaps =
  match Hashtbl.find_opt t.pending gid with
  | None -> false (* already decided or aborted; the record arbitrates *)
  | Some p ->
    (match Hashtbl.find_opt t.txns gid with
     | None ->
       Hashtbl.remove t.pending gid;
       false
     | Some txn ->
       if p.decided then false
       else if not ok then begin
         abort_cross t txn
           (Printf.sprintf "shard %d refused prepare: %s" shard reason);
         true
       end
       else if List.mem_assoc shard p.votes then false
       else begin
         p.votes <- (shard, snaps) :: p.votes;
         if List.length p.votes = List.length p.participants then begin
           decide_cross t txn p;
           true
         end
         else false
       end)

(* Participant receives the decision. *)
let handle_decide t ~gid ~commit ~log =
  match Hashtbl.find_opt t.parts gid with
  | None -> false
  | Some part ->
    (match Hashtbl.find_opt t.txns gid with
     | None ->
       Hashtbl.remove t.parts gid;
       false
     | Some txn ->
       if not commit then begin
         if part.applied then rollback_participant t txn "2pc abort"
         else if txn.Txn.state = Txn.Started then
           finish_participant t txn (Txn.Aborted "2pc abort")
         else begin
           (* Still queued: drop before it ever votes. *)
           (match Sched.remove t.sched gid with
            | `Blocked -> Mglock.cancel_wait t.locks ~txn:gid
            | `Ready | `Absent -> ());
           Hashtbl.remove t.parts gid;
           finish t txn (Txn.Aborted "2pc abort before prepare")
         end;
         true
       end
       else begin
         if txn.Txn.state = Txn.Started && not part.applied then
           apply_participant_slice t txn part log;
         false
       end)

(* Participant receives the physical outcome. *)
let handle_finish t ~gid ~ok =
  match Hashtbl.find_opt t.parts gid with
  | None -> false
  | Some part ->
    (match Hashtbl.find_opt t.txns gid with
     | None ->
       Hashtbl.remove t.parts gid;
       false
     | Some txn ->
       if ok then finish_participant t txn Txn.Committed
       else if part.applied then
         rollback_participant t txn "2pc physical rollback"
       else finish_participant t txn (Txn.Aborted "2pc physical rollback");
       true)

(* Presumed abort: a coordinator stuck gathering votes aborts outright; a
   prepared participant that waited too long closes the race by creating
   the decision record as Abort itself — if the create loses, it obeys the
   commit it reads (applying its slice from the record's payload). *)
let check_timeouts t =
  let now = Des.Sim.now t.sim in
  let progressed = ref false in
  let stale_coords =
    Hashtbl.fold
      (fun gid p acc ->
        if (not p.decided) && now >= p.p2_deadline then gid :: acc else acc)
      t.pending []
  in
  List.iter
    (fun gid ->
      match Hashtbl.find_opt t.txns gid with
      | Some txn ->
        abort_cross t txn "2pc prepare timed out";
        progressed := true
      | None -> Hashtbl.remove t.pending gid)
    stale_coords;
  let waiting =
    Hashtbl.fold
      (fun gid part acc ->
        if now >= part.pt_deadline then (gid, part) :: acc else acc)
      t.parts []
  in
  List.iter
    (fun (gid, (part : part_2pc)) ->
      match Hashtbl.find_opt t.txns gid with
      | None -> Hashtbl.remove t.parts gid
      | Some txn ->
        if txn.Txn.state <> Txn.Started then
          (* Not yet voted (queued or lock-parked): nothing to presume. *)
          part.pt_deadline <- now +. t.cfg.twopc_prepare_timeout
        else if not part.applied then (
          match propose_decision t gid Proto.Abort with
          | Proto.Abort ->
            twopc_instant t ~txn:gid "2pc-presume-abort";
            finish_participant t txn (Txn.Aborted "2pc presumed abort");
            (* Not [st.aborted] — the coordinator shard accounts for the
               client-visible outcome — but it is a 2PC abort this shard
               decided, and the counter doc promises presumed aborts. *)
            t.st.twopc_aborted <- t.st.twopc_aborted + 1;
            progressed := true
          | Proto.Commit slices ->
            let log =
              Option.value (List.assoc_opt t.shard.Shard.sid slices) ~default:[]
            in
            apply_participant_slice t txn part log)
        else
          match read_finish t gid with
          | Some true ->
            finish_participant t txn Txn.Committed;
            progressed := true
          | Some false ->
            rollback_participant t txn "2pc physical rollback";
            progressed := true
          | None -> part.pt_deadline <- now +. t.cfg.twopc_prepare_timeout)
    waiting;
  !progressed

(* Cross-shard transactions a new leader inherited: terminal coordinators
   re-broadcast their verdict (the participants may never have heard it);
   in-flight ones resolve against the decision record — missing means
   presumed abort. *)
let participants_of t (txn : Txn.t) =
  match Router.classify t.shard ~args:txn.Txn.args with
  | Router.Single _ -> []
  | Router.Cross { coord; participants } ->
    List.filter (fun s -> s <> t.shard.Shard.sid) (coord :: participants)

let resolve_recovered t =
  let inflight_cross = t.recovered_cross in
  t.recovered_cross <- [];
  let terminal = t.recovered_cross_terminal in
  t.recovered_cross_terminal <- [];
  List.iter
    (fun (txn : Txn.t) ->
      let gid = txn.Txn.id in
      let ok = txn.Txn.state = Txn.Committed in
      write_finish t gid ~ok;
      List.iter
        (fun sid -> send_twopc t ~shard:sid (Proto.Finish { gid; ok }))
        (participants_of t txn))
    terminal;
  let progressed = ref false in
  List.iter
    (fun ((txn : Txn.t), needs_phy) ->
      let gid = txn.Txn.id in
      let participants = participants_of t txn in
      let now = Des.Sim.now t.sim in
      let commit slices =
        Hashtbl.replace t.pending gid
          {
            participants;
            votes = [];
            decided = true;
            p2_deadline = now +. t.cfg.twopc_prepare_timeout;
          };
        List.iter
          (fun sid ->
            let log = Option.value (List.assoc_opt sid slices) ~default:[] in
            send_twopc t ~shard:sid (Proto.Decide { gid; commit = true; log }))
          participants;
        if needs_phy then
          ignore
            (Coord.Recipes.enqueue t.client ~queue:(Proto.phy_queue_ns t.ns)
               (string_of_int gid))
      in
      let abort () =
        (* Recovery replayed this coordinator's own slice into the tree;
           undo exactly that slice. *)
        txn.Txn.log <- Xlog.slice txn.Txn.log ~keep:(Shard.owns t.shard);
        twopc_instant t ~txn:gid "2pc-recovery-abort";
        (match rollback_logical t txn with
         | Ok () -> finish t txn (Txn.Aborted "2pc presumed abort on recovery")
         | Error undo_reason ->
           finish t txn
             (Txn.Failed ("2pc presumed abort on recovery; " ^ undo_reason)));
        release_locks t txn;
        t.st.aborted <- t.st.aborted + 1;
        t.st.twopc_aborted <- t.st.twopc_aborted + 1;
        List.iter
          (fun sid ->
            send_twopc t ~shard:sid
              (Proto.Decide { gid; commit = false; log = [] }))
          participants;
        progressed := true
      in
      match read_decision t gid with
      | Some (Proto.Commit slices) -> commit slices
      | Some Proto.Abort -> abort ()
      | None ->
        (match propose_decision t gid Proto.Abort with
         | Proto.Commit slices -> commit slices
         | Proto.Abort -> abort ()))
    inflight_cross;
  !progressed

(* Drain this shard's 2PC mailbox (process-then-delete, like inputQ).
   Returns true when the scheduler should run afterwards. *)
let drain_twopc t =
  if t.shard.Shard.count = 1 then false
  else begin
    let progressed = ref (resolve_recovered t) in
    let queue = Proto.twopc_queue t.shard.Shard.sid in
    let rec loop () =
      match Coord.Client.first_child_value t.gclient queue with
      | None -> ()
      | Some (key, payload) ->
        (match Proto.twopc_of_string payload with
         | Error reason ->
           Log.err (fun m -> m "%s: bad 2pc item %s: %s" t.cname key reason)
         | Ok (Proto.Prepare { gid; coord; roots }) ->
           if handle_prepare t ~gid ~coord ~roots then progressed := true
         | Ok (Proto.Prepared { gid; shard; ok; reason; snaps }) ->
           if handle_prepared t ~gid ~shard ~ok ~reason ~snaps then
             progressed := true
         | Ok (Proto.Decide { gid; commit; log }) ->
           if handle_decide t ~gid ~commit ~log then progressed := true
         | Ok (Proto.Finish { gid; ok }) ->
           if handle_finish t ~gid ~ok then progressed := true);
        ignore (Coord.Client.delete t.gclient ~key ());
        loop ()
    in
    loop ();
    if check_timeouts t then progressed := true;
    !progressed
  end

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

(* Take the head of inputQ with process-then-delete semantics: if we crash
   mid-processing the item is re-processed by the next leader, and every
   handler above is idempotent. *)
let next_item t =
  let queue = Proto.input_queue_ns t.ns in
  match Coord.Client.first_child_value t.client queue with
  | Some item -> Some item
  | None ->
    Coord.Client.watch_children t.client queue;
    (match Coord.Client.first_child_value t.client queue with
     | Some item -> Some item
     | None ->
       ignore (Coord.Client.await_change t.client ~timeout:1.0);
       None)

(* §4: inconsistencies are "detected by periodically comparing the data
   between the two layers", and repair runs at an operator-chosen
   frequency.  The sweeper compares every device's exported state with the
   logical subtree (a read-only snapshot comparison) and enqueues Repair
   controls for divergent or quarantined subtrees, so the healing itself
   serializes with transaction processing in the main loop. *)
let spawn_repair_sweeper t interval =
  let device_diverged root =
    match t.devices root with
    | None -> false
    | Some device ->
      (match Data.Tree.subtree t.tree root with
       | Error _ -> false
       | Ok logical ->
         not (Data.Tree.equal logical (Devices.Device.export device)))
  in
  let sweeper () =
    while not t.stopped do
      Des.Proc.sleep interval;
      if t.leading && not t.stopped then begin
        let quarantined_roots =
          List.filter_map (fun path -> t.devices path) (quarantined t)
          |> List.map Devices.Device.root
        in
        let drifted =
          List.filter
            (fun root ->
              (* Only sweep owned subtrees — the copies this shard keeps
                 of foreign subtrees go stale the moment the owner commits
                 a single-shard transaction there, and "repairing" a
                 foreign device against a stale copy would undo the
                 owner's committed work.  Also skip subtrees with
                 transactions physically in flight: a transient mismatch
                 there is work in progress, not drift. *)
              Shard.owns t.shard root
              && Mglock.holders t.locks root = []
              && device_diverged root)
            t.device_roots
        in
        List.sort_uniq Data.Path.compare (quarantined_roots @ drifted)
        |> List.iter (fun root ->
               ignore
                 (Coord.Recipes.enqueue t.client
                    ~queue:(Proto.input_queue_ns t.ns)
                    (Proto.input_to_string (Proto.Control (Proto.Repair root)))))
      end
    done
  in
  t.procs <-
    Des.Proc.spawn ~name:(t.cname ^ ".repair") t.sim sweeper :: t.procs

(* The watchdog automates §4's operator (see Watchdog): periodically scan
   the in-flight transactions and escalate TERM → KILL on the overdue ones.
   Signals are injected as ordinary inputQ control items so they serialize
   with transaction processing (and survive into the next leader's replay
   if this one dies mid-escalation). *)
let spawn_watchdog t =
  let started () =
    (* Prepared 2PC shadow transactions are excluded: they legitimately
       hold locks until the coordinator's decision, and the presumed-abort
       timeout — not a KILL — is what unsticks them. *)
    Hashtbl.fold
      (fun id (txn : Txn.t) acc ->
        if txn.Txn.state = Txn.Started && not (is_participant txn) then
          (id, txn.Txn.log) :: acc
        else acc)
      t.txns []
  in
  let signal txn_id signal =
    (match signal with
     | Proto.Term -> t.st.auto_terms <- t.st.auto_terms + 1
     | Proto.Kill -> t.st.auto_kills <- t.st.auto_kills + 1);
    Option.iter
      (fun tr ->
        Trace.instant tr ~txn:txn_id ~cat:"watchdog"
          ~name:
            (match signal with Proto.Term -> "term" | Proto.Kill -> "kill")
          ())
      t.trace;
    Log.info (fun m ->
        m "%s: watchdog %s txn %d" t.cname (Proto.signal_to_string signal)
          txn_id);
    ignore
      (Coord.Recipes.enqueue t.client ~queue:(Proto.input_queue_ns t.ns)
         (Proto.input_to_string (Proto.Control (Proto.Signal (txn_id, signal)))))
  in
  let loop () =
    while not t.stopped do
      Des.Proc.sleep t.cfg.watchdog.Watchdog.poll_interval;
      if t.leading && not t.stopped then begin
        let sts = started () in
        Log.debug (fun m ->
            m "%s: watchdog scan at %.2f: started=[%s]" t.cname
              (Des.Sim.now t.sim)
              (String.concat ","
                 (List.map (fun (id, _) -> string_of_int id) sts)));
        Watchdog.scan t.watchdog ~now:(Des.Sim.now t.sim) ~started:sts ~signal
      end
    done
  in
  t.procs <-
    Des.Proc.spawn ~name:(t.cname ^ ".watchdog") t.sim loop :: t.procs

(* Breaker-parked transactions sit in the scheduler's blocked table with no
   lock waiter entry, so no release ever wakes them; this monitor re-gates
   them periodically and moves the admissible ones back to the ready queue
   (gate is also what ages Tripped breakers into Half_open).  The main loop
   notices [wake_pending] on its next iteration and drains. *)
let spawn_health_monitor t =
  let loop () =
    while not t.stopped do
      Des.Proc.sleep t.cfg.health.Health.poll_interval;
      if t.leading && (not t.stopped) && Hashtbl.length t.breaker_parked > 0
      then begin
        let now = Des.Sim.now t.sim in
        let eligible =
          Hashtbl.fold
            (fun id roots acc ->
              if
                List.for_all
                  (fun root -> Health.gate t.health ~now ~root <> `Defer)
                  roots
              then id :: acc
              else acc)
            t.breaker_parked []
          |> List.sort compare
        in
        if eligible <> [] then begin
          List.iter (Hashtbl.remove t.breaker_parked) eligible;
          ignore (Sched.wake t.sched eligible);
          t.wake_pending <- true;
          Log.info (fun m ->
              m "%s: breaker released %d parked txn(s)" t.cname
                (List.length eligible))
        end
      end
    done
  in
  t.procs <-
    Des.Proc.spawn ~name:(t.cname ^ ".health") t.sim loop :: t.procs

(* Long-lived persist-pool workers: each owns one extra coordination
   session and drains the shared job queue, so a burst flush's record
   writes overlap — and coalesce into shared replica-side group-commit
   batches — instead of serializing on the main session.  Registered in
   [t.procs] so [crash] kills them with the rest of the controller. *)
let spawn_persist_workers t =
  if t.persist_pool <> [] then begin
    let jobs = Des.Channel.create ~name:(t.cname ^ ".pjobs") () in
    t.pjobs <- Some jobs;
    List.iteri
      (fun i client ->
        let worker () =
          while not t.stopped do
            (match Des.Channel.recv jobs with
             | Pwrite (key, value) -> (
               match Coord.Client.write client ~key ~value () with
               | Ok _ -> ()
               | Error e ->
                 Log.err (fun m ->
                     m "%s: pooled persist of %s failed: %s" t.cname key
                       (Format.asprintf "%a" Coord.Types.pp_op_error e)))
             | Pdelete key -> ignore (Coord.Client.delete client ~key ())
             | Penqueue (queue, payload) ->
               ignore (Coord.Recipes.enqueue client ~queue payload));
            Des.Channel.send t.packs ()
          done
        in
        t.procs <-
          Des.Proc.spawn
            ~name:(Printf.sprintf "%s.persist-%d" t.cname i)
            t.sim worker
          :: t.procs)
      t.persist_pool
  end

let run t () =
  (* Shard ownership is a lease: the ephemeral sequential member node in
     the shard's election recipe.  Holding the lease IS being the shard's
     leader — exactly the pre-sharding election, one per namespace. *)
  let lease = Proto.election_path_ns t.ns in
  let member =
    Coord.Recipes.acquire_lease t.client ~lease ~payload:t.cname
  in
  Coord.Recipes.await_lease t.client ~lease ~member;
  t.leading <- true;
  Log.info (fun m -> m "%s: elected leader" t.cname);
  (match t.cfg.repair_interval with
   | Some interval -> spawn_repair_sweeper t interval
   | None -> ());
  if t.cfg.watchdog.Watchdog.enabled then spawn_watchdog t;
  if t.cfg.health.Health.enabled then spawn_health_monitor t;
  spawn_persist_workers t;
  recover t;
  schedule t;
  (* Items already sitting in inputQ behind the one just processed are
     drained in the same pass (bounded burst) before the scheduler runs:
     a group-commit flush delivers many results back-to-back, and one
     batched wake pass over the whole burst replaces a scan per item.
     Txn-record persists are deferred across the burst and flushed
     through the session pool before the items are deleted, so the
     process→persist→delete ordering a single-item pass guarantees still
     holds at burst granularity (a crash mid-burst replays the items,
     which processing dedups exactly as it did before). *)
  (* Burst reads are pointless without a pool to overlap the resulting
     writes: a one-item "burst" keeps the op sequence of the classic
     process-then-delete loop. *)
  let input_burst = if t.persist_pool = [] then 1 else 16 in
  while not t.stopped do
    if drain_twopc t || t.wake_pending then schedule t;
    match next_item t with
    | None -> ()
    | Some (key, payload) ->
      t.defer_persists <- true;
      let need_schedule = ref (process_item t ~key ~payload) in
      let keys = ref [ key ] in
      if input_burst > 1 && not t.stopped then begin
        let queue = Proto.input_queue_ns t.ns in
        let backlog =
          List.filter (fun k -> k <> key) (Coord.Client.get_children t.client queue)
        in
        let rec take n = function
          | x :: tl when n > 0 -> x :: take (n - 1) tl
          | _ -> []
        in
        List.iter
          (fun k ->
            if not t.stopped then
              match Coord.Client.get t.client k with
              | None -> ()
              | Some (payload, _) ->
                keys := k :: !keys;
                if process_item t ~key:k ~payload then need_schedule := true)
          (take (input_burst - 1) backlog)
      end;
      t.defer_persists <- false;
      flush_persists t;
      if not t.stopped then begin
        run_coord_jobs t (List.rev_map (fun k -> Pdelete k) !keys);
        if drain_twopc t || !need_schedule || t.wake_pending then schedule t
      end
  done

let start t =
  let p = Des.Proc.spawn ~name:t.cname t.sim (run t) in
  t.procs <- [ p ]

let crash t =
  t.stopped <- true;
  t.leading <- false;
  List.iter Des.Proc.kill t.procs;
  t.procs <- [];
  List.iter Coord.Client.close t.persist_pool;
  if t.gclient != t.client then Coord.Client.close t.gclient;
  Coord.Client.close t.client
