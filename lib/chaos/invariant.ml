type violation = { invariant : string; at : float; detail : string }

let violation_to_string v =
  Printf.sprintf "[%8.2f] %-22s %s" v.at v.invariant v.detail

(* ------------------------------------------------------------------ *)
(* Continuous tracker *)

type tracker = {
  sim : Des.Sim.t;
  mutable stopped : bool;
  mutable found : violation list;
  leaders_by_term : (int, int) Hashtbl.t;  (* coord term -> replica id *)
  overcommitted : (int, unit) Hashtbl.t;   (* host idx already reported *)
  progress_lied : (int * int, unit) Hashtbl.t;
      (* (shard, peer) pairs already reported by progress-integrity *)
  stall_budget : float option;
  first_started : (int, float) Hashtbl.t;  (* txn id -> first seen Started *)
  stuck_reported : (int, unit) Hashtbl.t;
  queue_budget : int option;
  mutable queue_reported : bool;
  waiters_reported : (int, unit) Hashtbl.t;  (* shards already reported *)
}

let record tracker invariant detail =
  tracker.found <-
    { invariant; at = Des.Sim.now tracker.sim; detail } :: tracker.found

let poll_coord_leadership tracker platform =
  let ens = Tropic.Platform.coord platform in
  List.iter
    (fun i ->
      if Coord.Ensemble.replica_up ens i then begin
        let replica = Coord.Ensemble.replica ens i in
        if Coord.Replica.is_leader replica then begin
          let term = Coord.Replica.term replica in
          match Hashtbl.find_opt tracker.leaders_by_term term with
          | None -> Hashtbl.replace tracker.leaders_by_term term i
          | Some j when j <> i ->
            record tracker "one-leader-per-term"
              (Printf.sprintf "replicas %d and %d both lead term %d" j i term)
          | Some _ -> ()
        end
      end)
    (Coord.Ensemble.replica_ids ens)

(* The leader's replication progress must never run ahead of reality: if
   it believes peer P has replicated up to index m, P's log must actually
   reach m.  Under the current leader this holds unconditionally — acked
   entries are never truncated out from under the leader that acked them —
   unless a stale append reply leaks across a membership change (node
   removed and re-added within one term) and inflates the fresh
   incarnation's progress entry.  Checked only when exactly one live
   member claims leadership, so a transient split view (old leader not yet
   deposed) cannot false-positive. *)
let poll_progress_integrity tracker platform =
  for sid = 0 to Tropic.Platform.shard_count platform - 1 do
    let ens = Tropic.Platform.coord_ensemble platform sid in
    let leaders =
      List.filter
        (fun i ->
          Coord.Ensemble.replica_up ens i
          &&
          let r = Coord.Ensemble.replica ens i in
          Coord.Replica.is_leader r && Coord.Replica.is_member r)
        (Coord.Ensemble.replica_ids ens)
    in
    match leaders with
    | [ lid ] ->
      let leader = Coord.Ensemble.replica ens lid in
      List.iter
        (fun (peer, match_index) ->
          if List.mem peer (Coord.Ensemble.replica_ids ens) then begin
            let actual =
              Coord.Replica.last_log_index (Coord.Ensemble.replica ens peer)
            in
            if
              match_index > actual
              && not (Hashtbl.mem tracker.progress_lied (sid, peer))
            then begin
              Hashtbl.replace tracker.progress_lied (sid, peer) ();
              record tracker "progress-integrity"
                (Printf.sprintf
                   "shard %d: leader %d believes replica %d matches index \
                    %d, but its log ends at %d"
                   sid lid peer match_index actual)
            end
          end)
        (Coord.Replica.progress_snapshot leader)
    | _ -> ()
  done

(* A transaction may be Started for a long time legitimately (phyQ
   queueing, retries, fail-overs), but past the stall budget it is stuck:
   it holds its write locks, so everything conflicting is wedged behind
   it.  Tracks the first time each id is seen Started on whoever leads;
   ids that leave Started are forgiven (recovery re-Starting an id keeps
   its original clock — the locks were held the whole time). *)
let poll_stuck_locks tracker platform =
  match tracker.stall_budget with
  | None -> ()
  | Some budget ->
    (* Observe every shard that currently has a leader; ids owned by a
       leaderless shard are neither clocked nor forgiven this poll (same
       blind spot the single-shard tracker has during fail-over). *)
    let shards = Tropic.Platform.shard_count platform in
    let observed = Array.make shards false in
    let started = ref [] in
    for sid = 0 to shards - 1 do
      match Tropic.Platform.shard_leader platform sid with
      | None -> ()
      | Some leader ->
        observed.(sid) <- true;
        started := Tropic.Controller.started_txns leader @ !started
    done;
    let started = !started in
    let now = Des.Sim.now tracker.sim in
    let live = Hashtbl.create 16 in
    List.iter (fun id -> Hashtbl.replace live id ()) started;
    let gone =
      Hashtbl.fold
        (fun id _ acc ->
          if Hashtbl.mem live id || not observed.(Tropic.Proto.shard_of_txn ~shards id) then acc
          else id :: acc)
        tracker.first_started []
    in
    List.iter (Hashtbl.remove tracker.first_started) gone;
    List.iter
      (fun id ->
        match Hashtbl.find_opt tracker.first_started id with
        | None -> Hashtbl.replace tracker.first_started id now
        | Some since ->
          if now -. since > budget && not (Hashtbl.mem tracker.stuck_reported id)
          then begin
            Hashtbl.replace tracker.stuck_reported id ();
            record tracker "stuck-lock"
              (Printf.sprintf
                 "txn %d in flight (locks held) for %.0fs, budget %.0fs" id
                 (now -. since) budget)
          end)
      started

(* Admission control exists to bound the controller's pending queue; past
   the budget the platform is queueing unboundedly under load it should
   shed.  Reported once per run — a storm would otherwise drown the
   violation list in one line per poll. *)
let poll_bounded_queue tracker platform =
  match tracker.queue_budget with
  | None -> ()
  | Some budget ->
    if not tracker.queue_reported then begin
      (* Per-shard bound: each shard's admission control sheds on its own
         queue, so the budget applies to every leader separately. *)
      for sid = 0 to Tropic.Platform.shard_count platform - 1 do
        match Tropic.Platform.shard_leader platform sid with
        | None -> ()
        | Some leader ->
          let pending = Tropic.Controller.todo_length leader in
          if pending > budget && not tracker.queue_reported then begin
            tracker.queue_reported <- true;
            record tracker "bounded-queue"
              (Printf.sprintf "%d transactions pending on shard %d, budget %d"
                 pending sid budget)
          end
      done
    end

(* A lock-parked transaction is woken only through its waiter
   registration: one parked without a registration is a lost wakeup, and a
   registration with no parked transaction reserves locks for nothing.
   Breaker and 2PC parks have no registration, so only lock-cause entries
   with no wake pending count.  Reported once per shard. *)
let poll_parked_waiters tracker platform =
  for sid = 0 to Tropic.Platform.shard_count platform - 1 do
    match Tropic.Platform.shard_leader platform sid with
    | None -> ()
    | Some leader ->
      let parked = Tropic.Controller.lock_parked leader in
      let waiters = Tropic.Controller.waiter_count leader in
      if parked <> waiters && not (Hashtbl.mem tracker.waiters_reported sid)
      then begin
        Hashtbl.replace tracker.waiters_reported sid ();
        record tracker "parked-waiters"
          (Printf.sprintf
             "shard %d: %d lock-parked transactions, %d waiter registrations"
             sid parked waiters)
      end
  done

let overcommit_violations ?(once = None) computes =
  let found = ref [] in
  Array.iteri
    (fun i (root, compute) ->
      let used = Devices.Compute.used_mem_mb compute in
      let capacity = Devices.Compute.mem_mb compute in
      let already =
        match once with Some seen -> Hashtbl.mem seen i | None -> false
      in
      if used > capacity && not already then begin
        (match once with Some seen -> Hashtbl.replace seen i () | None -> ());
        found :=
          Printf.sprintf "%s holds %d MB of VMs on %d MB of memory"
            (Data.Path.to_string root) used capacity
          :: !found
      end)
    computes;
  List.rev !found

let start ?(period = 0.25) ?stall_budget ?queue_budget ~platform ~computes () =
  let tracker =
    {
      sim = Tropic.Platform.sim platform;
      stopped = false;
      found = [];
      leaders_by_term = Hashtbl.create 16;
      overcommitted = Hashtbl.create 8;
      progress_lied = Hashtbl.create 8;
      stall_budget;
      first_started = Hashtbl.create 16;
      stuck_reported = Hashtbl.create 8;
      queue_budget;
      queue_reported = false;
      waiters_reported = Hashtbl.create 4;
    }
  in
  ignore
    (Des.Proc.spawn ~name:"invariant-tracker" tracker.sim (fun () ->
         while not tracker.stopped do
           Des.Proc.sleep period;
           poll_coord_leadership tracker platform;
           poll_progress_integrity tracker platform;
           poll_stuck_locks tracker platform;
           poll_bounded_queue tracker platform;
           poll_parked_waiters tracker platform;
           List.iter
             (record tracker "no-overcommit")
             (overcommit_violations ~once:(Some tracker.overcommitted) computes)
         done));
  tracker

let stop tracker = tracker.stopped <- true
let tracker_violations tracker = List.rev tracker.found

(* ------------------------------------------------------------------ *)
(* Trace lifecycle check *)

let check_trace ~at tracer =
  List.map
    (fun e ->
      {
        invariant = "trace-" ^ e.Trace.Check.check;
        at;
        detail =
          Printf.sprintf "txn %d: %s" e.Trace.Check.ctxn e.Trace.Check.detail;
      })
    (Trace.Check.validate tracer)

(* ------------------------------------------------------------------ *)
(* Session order *)

(* A replica's count covers the whole committed log it has applied, its
   snapshot's share included (the image carries the count), so a gap
   counted by one live replica is one in the log itself; take the worst
   replica per shard. *)
let session_order_gaps platform =
  List.fold_left ( + ) 0
    (List.init (Tropic.Platform.shard_count platform) (fun sid ->
         let ens = Tropic.Platform.coord_ensemble platform sid in
         List.fold_left
           (fun worst i ->
             if Coord.Ensemble.replica_up ens i then
               max worst
                 (Coord.Store.order_gaps
                    (Coord.Replica.store (Coord.Ensemble.replica ens i)))
             else worst)
           0
           (Coord.Ensemble.replica_ids ens)))

(* ------------------------------------------------------------------ *)
(* Quiescence check *)

type vm_fate = { vm : string; host : int; present : bool; running : bool }

let check_quiescence ~platform ~computes ~devices ~txns ~expected ~skip_vm =
  let at = Des.Sim.now (Tropic.Platform.sim platform) in
  let found = ref [] in
  let violation invariant detail =
    found := { invariant; at; detail } :: !found
  in
  (* 1. Nothing lost: every submitted transaction reached a terminal state. *)
  List.iter
    (fun (id, state) ->
      match state with
      | Some s when Tropic.Txn.is_terminal s -> ()
      | Some s ->
        violation "transaction-terminal"
          (Printf.sprintf "txn %d stuck in %s" id (Tropic.Txn.state_to_string s))
      | None ->
        violation "transaction-terminal"
          (Printf.sprintf "txn %d has no record" id))
    txns;
  (* 2. Exactly-once commit effects on the devices. *)
  let expected_present = Hashtbl.create 64 in
  List.iter
    (fun fate -> if fate.present then Hashtbl.replace expected_present fate.vm fate)
    expected;
  Array.iteri
    (fun i (root, compute) ->
      List.iter
        (fun vm ->
          if not (skip_vm vm) then
            match Hashtbl.find_opt expected_present vm with
            | None ->
              violation "exactly-once"
                (Printf.sprintf "unexpected VM %s on %s" vm
                   (Data.Path.to_string root))
            | Some fate when fate.host <> i ->
              violation "exactly-once"
                (Printf.sprintf "VM %s found on %s, expected host %d" vm
                   (Data.Path.to_string root) fate.host)
            | Some _ -> ())
        (Devices.Compute.vm_names compute))
    computes;
  List.iter
    (fun fate ->
      if not (skip_vm fate.vm) then
        if fate.present then begin
          let _, compute = computes.(fate.host) in
          match Devices.Compute.vm_state compute fate.vm with
          | None ->
            violation "exactly-once"
              (Printf.sprintf "committed VM %s missing from host %d" fate.vm
                 fate.host)
          | Some state ->
            let want = if fate.running then `Running else `Stopped in
            if state <> want then
              violation "exactly-once"
                (Printf.sprintf "VM %s is %s, expected %s" fate.vm
                   (match state with `Running -> "running" | `Stopped -> "stopped")
                   (if fate.running then "running" else "stopped"))
        end
        else
          Array.iteri
            (fun i (_, compute) ->
              if Devices.Compute.vm_state compute fate.vm <> None then
                violation "exactly-once"
                  (Printf.sprintf "destroyed VM %s resurrected on host %d"
                     fate.vm i))
            computes)
    expected;
  (* 3. Capacity: final physical placement respects host memory. *)
  List.iter (violation "no-overcommit") (overcommit_violations computes);
  (* Session order: no data command was applied past a hole in its
     session's request sequence, i.e. pipelined commands never overtook
     or lost an earlier one of their session. *)
  (match session_order_gaps platform with
   | 0 -> ()
   | gaps ->
     violation "session-order"
       (Printf.sprintf
          "%d data commands applied past a gap in their session's request \
           order"
          gaps));
  (* 4/5/6 need a leading controller — on every shard.  Each device
     subtree is judged against its owning shard's leader (the copies a
     shard keeps of foreign subtrees are cosmetic and go stale), and the
     drained checks apply to every shard's scheduler state. *)
  let shards = Tropic.Platform.shard_count platform in
  for sid = 0 to shards - 1 do
    let where =
      if shards = 1 then "" else Printf.sprintf " (shard %d)" sid
    in
    match Tropic.Platform.shard_leader platform sid with
    | None ->
      violation "leader-election"
        (Printf.sprintf "no controller leads%s at quiescence" where)
    | Some leader ->
      List.iter
        (fun path ->
          violation "convergence"
            (Printf.sprintf "%s still quarantined%s" (Data.Path.to_string path)
               where))
        (Tropic.Controller.quarantined leader);
      let tree = Tropic.Controller.tree leader in
      List.iter
        (fun device ->
          let root = Devices.Device.root device in
          if Tropic.Platform.shard_of_path platform root = sid then
            match
              Tropic.Recon.drift ~rules:Tcloud.Rules.repair_rules tree device
            with
            | Tropic.Recon.Same -> ()
            | Tropic.Recon.Missing e ->
              violation "convergence"
                (Printf.sprintf "%s missing from logical tree%s: %s"
                   (Data.Path.to_string root) where
                   (Data.Tree.error_to_string e))
            | Tropic.Recon.Differs _ ->
              violation "convergence"
                (Printf.sprintf "layers diverge at %s%s"
                   (Data.Path.to_string root) where))
        devices;
      (* Drained: the same backlog {!Tropic.Platform.quiescent} reads. *)
      Option.iter
        (fun (b : Tropic.Platform.backlog) ->
          let drained n fmt =
            if n > 0 then
              violation "quiescence-drained" (Printf.sprintf fmt n where)
          in
          drained b.todo "todo queue still holds %d transactions%s";
          drained b.inflight "%d transactions still in flight%s";
          drained b.unfinished "%d transactions not yet terminal%s";
          drained b.locks "lock table still holds %d entries%s";
          drained b.blocked "blocked table still holds %d transactions%s";
          drained b.waiters "lock table still indexes %d waiters%s";
          drained b.input_items "inputQ still holds %d items%s";
          drained b.phy_items "phyQ still holds %d items%s")
        (Tropic.Platform.shard_backlog platform sid);
      (* Live state only.  No replay cursor or executing marker may
         outlive its transaction, or nothing ever deletes it
         (orphan-keys).  After the final checkpoint the store holds
         nothing else but election and ephemeral keys, the checkpoint,
         queue items, and the records of live and of cross-shard
         transactions, which stay (store-bounded).  The global 2PC
         mailboxes and decision records sit in shard 0's store too. *)
      let ens = Tropic.Platform.coord_ensemble platform sid in
      let ns = Tropic.Proto.ns_of_shard sid in
      let live = List.map fst (Tropic.Controller.held leader) in
      let under prefix key = String.starts_with ~prefix:(prefix ^ "/") key in
      let kept key =
        match Coord.Store.get (Coord.Ensemble.leader_store ens) key with
        | None -> false
        | Some (value, _) ->
          (match Tropic.Txn.of_string value with
           | Error _ -> false
           | Ok txn ->
             List.mem txn.Tropic.Txn.id live
             || Tropic.Twopc.is_participant txn
             || List.length
                  (List.sort_uniq compare
                     (List.map
                        (Tropic.Platform.shard_of_path platform)
                        (Tropic.Router.arg_paths txn.Tropic.Txn.args)))
                > 1)
      in
      if Coord.Ensemble.leader_id ens <> None then
        List.iter
          (fun (key, ephemeral) ->
            let left name = violation name (key ^ " left in the store" ^ where) in
            if
              List.exists
                (fun prefix -> under prefix key)
                Tropic.Proto.[ progress_prefix_ns ns; executing_prefix_ns ns ]
            then left "orphan-keys"
            else if
              ephemeral
              || List.exists
                   (fun prefix -> under prefix key)
                   Tropic.Proto.
                     [ election_path_ns ns; checkpoint_prefix_ns ns;
                       input_queue_ns ns; phy_queue_ns ns; "/tropic/2pc" ]
              || (under (Tropic.Proto.txns_prefix_ns ns) key && kept key)
            then ()
            else left "store-bounded")
          (Coord.Store.keys (Coord.Ensemble.leader_store ens))
  done;
  List.rev !found
