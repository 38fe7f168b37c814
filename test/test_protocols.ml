(* The controller's protocol modules, each against a bare coordination
   ensemble: Twopc's decision record and codec, Persist's deferred,
   non-blocking multi-op write path, the worker's take, and Recovery's
   replay — plus the platform-level guarantees the write path must keep. *)

open Tropic

let bool_c = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_name = QCheck.Gen.(string_size ~gen:printable (int_range 1 8))

let gen_path =
  QCheck.Gen.(
    map
      (fun parts -> Data.Path.v ("/" ^ String.concat "/" parts))
      (list_size (int_range 1 3)
         (string_size ~gen:(char_range 'a' 'z') (int_range 1 6))))

let gen_value =
  QCheck.Gen.(
    oneof
      [ return Data.Value.Null;
        map (fun b -> Data.Value.Bool b) bool;
        map (fun i -> Data.Value.Int i) small_signed_int;
        map (fun s -> Data.Value.Str s) gen_name ])

let gen_record index =
  QCheck.Gen.(
    let* path = gen_path in
    let* action = gen_name in
    let* args = list_size (int_range 0 3) gen_value in
    let* undo = opt gen_name in
    let* undo_args = list_size (int_range 0 2) gen_value in
    return { Xlog.index; path; action; args; undo; undo_args })

let gen_log =
  QCheck.Gen.(
    let* n = int_range 0 4 in
    flatten_l (List.init n (fun i -> gen_record (i + 1))))

let gen_node =
  QCheck.Gen.(
    sized_size (int_range 0 2)
    @@ fix (fun self n ->
           let* kind = gen_name in
           let* attrs = list_size (int_range 0 3) (pair gen_name gen_value) in
           let* children =
             if n = 0 then return []
             else list_size (int_range 0 3) (pair gen_name (self (n - 1)))
           in
           return (Data.Tree.make_node ~kind ~attrs ~children ())))

let gen_msg =
  QCheck.Gen.(
    let* gid = nat in
    oneof
      [ (let* coord = small_nat in
         let* roots = list_size (int_range 0 3) gen_path in
         return (Twopc.Prepare { gid; coord; roots }));
        (let* shard = small_nat in
         let* ok = bool in
         let* reason = gen_name in
         let* snaps = list_size (int_range 0 3) (pair gen_path gen_node) in
         return (Twopc.Prepared { gid; shard; ok; reason; snaps }));
        (let* commit = bool in
         let* log = gen_log in
         return (Twopc.Decide { gid; commit; log }));
        (let* verdict =
           oneofl [ Twopc.Committed; Twopc.Rolled_back; Twopc.Failed ]
         in
         return (Twopc.Finish { gid; verdict })) ])

let gen_decision =
  QCheck.Gen.(
    oneof
      [ return Twopc.Abort;
        map
          (fun slices -> Twopc.Commit slices)
          (list_size (int_range 0 3) (pair small_nat gen_log)) ])

let prop_msg_roundtrip =
  QCheck.Test.make ~name:"every 2pc message survives the codec" ~count:300
    (QCheck.make gen_msg ~print:Twopc.msg_to_string)
    (fun msg ->
      match Twopc.msg_of_string (Twopc.msg_to_string msg), msg with
      | Ok (Twopc.Prepared got), Twopc.Prepared sent ->
        (* Equal trees need not be equal maps under [=]. *)
        got.gid = sent.gid && got.shard = sent.shard && got.ok = sent.ok
        && got.reason = sent.reason
        && List.equal
             (fun (p, n) (q, m) -> Data.Path.equal p q && Data.Tree.equal n m)
             got.snaps sent.snaps
      | got, _ -> got = Ok msg)

let prop_decision_roundtrip =
  QCheck.Test.make ~name:"every 2pc decision survives the codec" ~count:300
    (QCheck.make gen_decision ~print:Twopc.decision_to_string)
    (fun d -> Twopc.decision_of_string (Twopc.decision_to_string d) = Ok d)

(* ------------------------------------------------------------------ *)
(* Twopc decision record *)

let two_shards = Shard.make ~sid:0 ~shards:2 [ Data.Path.v "/a"; Data.Path.v "/b" ]

let twopc ?(record = true) sim ens sid =
  Twopc.create ~stats:(Stats.fresh_stats ())
    ~name:(Printf.sprintf "tp%d" sid)
    ~gclient:(Coord.Ensemble.connect ens ~name:(Printf.sprintf "tp%d" sid) ())
    ~shard:(Shard.view two_shards ~sid) ~timeout:10. ~record sim

let commit = Twopc.Commit [ (1, []) ]

(* Run both proposals as concurrent processes; return what each got. *)
let race sim proposals =
  let got = Array.make (List.length proposals) None in
  List.iteri
    (fun i (tp, proposal) ->
      ignore
        (Des.Proc.spawn ~name:(Printf.sprintf "proposer-%d" i) sim (fun () ->
             got.(i) <- Some (Twopc.propose tp 42 proposal))))
    proposals;
  while Array.exists Option.is_none got do
    Des.Proc.sleep 0.01
  done;
  Array.map Option.get got

let test_racing_proposals_agree () =
  Drive.ensemble (fun sim ens ->
      ignore (Coord.Ensemble.await_leader ens);
      let coord = twopc sim ens 0 and part = twopc sim ens 1 in
      let got = race sim [ (coord, commit); (part, Twopc.Abort) ] in
      let stored = Twopc.read_decision coord 42 in
      Alcotest.(check bool_c) "a decision is stored" true (stored <> None);
      Array.iteri
        (fun i d ->
          Alcotest.(check bool_c)
            (Printf.sprintf "proposer %d obeys the stored record" i)
            true
            (Some d = stored))
        got)

let test_ablated_record_stores_nothing () =
  Drive.ensemble (fun sim ens ->
      ignore (Coord.Ensemble.await_leader ens);
      let coord = twopc ~record:false sim ens 0
      and part = twopc ~record:false sim ens 1 in
      let got = race sim [ (coord, commit); (part, Twopc.Abort) ] in
      Alcotest.(check bool_c) "every proposal wins" true
        (got = [| commit; Twopc.Abort |]);
      Alcotest.(check bool_c) "nothing to read back" true
        (Twopc.read_decision coord 42 = None);
      let c = Coord.Ensemble.connect ens ~name:"observer" () in
      Alcotest.(check (list string)) "no 2pc keys" []
        (Coord.Client.get_children c "/tropic/2pc"))

(* Twopc's mailbox of shard [sid]. *)
let mailbox sid = Printf.sprintf "/tropic/2pc/q%03d" sid

(* A Prepare redelivered after its shadow voted No and left the
   controller's table gets No again, from the shadow's tombstone, and no
   second shadow is admitted. *)
let test_redelivered_prepare_votes_no_again () =
  Drive.ensemble (fun sim ens ->
      ignore (Coord.Ensemble.await_leader ens);
      let part = twopc sim ens 1 in
      let c = Coord.Ensemble.connect ens ~name:"observer" () in
      let deliver () =
        ignore
          (Coord.Recipes.enqueue c ~queue:(mailbox 1)
             (Twopc.msg_to_string
                (Twopc.Prepare
                   { gid = 42; coord = 0; roots = [ Data.Path.v "/b" ] })))
      in
      let txns = Hashtbl.create 8 and admitted = ref [] in
      let local = function
        | Twopc.Admit txn ->
          admitted := txn :: !admitted;
          Hashtbl.replace txns txn.Txn.id txn
        | Twopc.Revote _ | Twopc.Apply _ | Twopc.Decide_votes _ | Twopc.Offer _
        | Twopc.End _ ->
          ()
      in
      deliver ();
      ignore (Twopc.drain part ~txns ~local);
      (match !admitted with
       | [ shadow ] ->
         (* Ended as the controller ends a refusing shadow: terminal and
            out of the table first, then the vote. *)
         shadow.Txn.state <- Txn.Aborted "root missing";
         Hashtbl.remove txns 42;
         Twopc.retire part shadow;
         Twopc.vote part 42 (Error "root missing")
       | _ -> Alcotest.fail "the first delivery admits one shadow");
      deliver ();
      ignore (Twopc.drain part ~txns ~local);
      Alcotest.(check int) "no second shadow" 1 (List.length !admitted);
      let no =
        Twopc.Prepared
          { gid = 42; shard = 1; ok = false; reason = "root missing"; snaps = [] }
      in
      Alcotest.(check (list string)) "No, then No again"
        [ Twopc.msg_to_string no; Twopc.msg_to_string no ]
        (List.map snd (Coord.Client.children_values c (mailbox 0) 8)))

(* ------------------------------------------------------------------ *)
(* Persist *)

let ns = Proto.default_ns

(* A write path on a session of its own, as a leading controller has. *)
let persist ens =
  let client = Coord.Ensemble.connect ens ~name:"ctl" () in
  Persist.create ~name:"ctl" ~ns ~client

let record c id =
  Option.map
    (fun (value, version) ->
      match Txn.of_string value with
      | Ok txn -> (txn.Txn.state, version)
      | Error e -> Alcotest.fail e)
    (Coord.Client.get c (Txn.record_key_ns ns id))

let txn id = Txn.make ~id ~proc:"p" ~args:[] ~submitted_at:0.

let test_deferred_record_written_once () =
  Drive.ensemble (fun _sim ens ->
      ignore (Coord.Ensemble.await_leader ens);
      let p = persist ens in
      let c = Coord.Ensemble.connect ens ~name:"reader" () in
      let t = txn 7 in
      Persist.defer p;
      t.Txn.state <- Txn.Accepted;
      Persist.write p t;
      t.Txn.state <- Txn.Started;
      Persist.write p t;
      Alcotest.(check bool_c) "nothing written while deferring" true
        (record c 7 = None);
      Alcotest.(check int) "one pending write" 1 (Persist.unfinished p);
      Persist.release p;
      Alcotest.(check int) "queued until acked" 1 (Persist.unfinished p);
      Persist.barrier p;
      Alcotest.(check bool_c) "one write, latest state" true
        (record c 7 = Some (Txn.Started, 1));
      Alcotest.(check int) "nothing pending" 0 (Persist.unfinished p))

(* An observer polls the phyQ; the moment an item shows up, the Started
   record it announces must already be readable. *)
let test_offer_follows_record () =
  Drive.ensemble (fun sim ens ->
      ignore (Coord.Ensemble.await_leader ens);
      let p = persist ens in
      let c = Coord.Ensemble.connect ens ~name:"observer" () in
      let ids = [ 11; 12; 13 ] in
      let seen = ref [] and violations = ref [] and stop = ref false in
      ignore
        (Des.Proc.spawn ~name:"observer" sim (fun () ->
             while not !stop do
               List.iter
                 (fun key ->
                   match Coord.Client.get c key with
                   | Some (v, _) ->
                     let id = int_of_string v in
                     if not (List.mem id !seen) then begin
                       seen := id :: !seen;
                       if record c id <> Some (Txn.Started, 1) then
                         violations := id :: !violations
                     end
                   | None -> ())
                 (Coord.Client.get_children c (Proto.phy_queue_ns ns));
               Des.Proc.sleep 0.0005
             done));
      Persist.defer p;
      List.iter
        (fun id ->
          let t = txn id in
          t.Txn.state <- Txn.Started;
          Persist.write p t;
          Persist.offer p id)
        ids;
      Des.Proc.sleep 0.5;
      Alcotest.(check (list int)) "no offer visible while deferring" [] !seen;
      Persist.release p;
      Des.Proc.sleep 0.5;
      stop := true;
      Alcotest.(check (list int)) "every offer seen" ids (List.sort compare !seen);
      Alcotest.(check (list int)) "no offer before its record" [] !violations)

(* The Started record, the phyQ item announcing it and the consumed
   inputQ item's delete travel as one command: the ensemble batches
   exactly one command for them, and the store shows all three effects,
   the record written once. *)
let test_started_and_offer_share_an_entry () =
  Drive.ensemble (fun _sim ens ->
      ignore (Coord.Ensemble.await_leader ens);
      let c = Coord.Ensemble.connect ens ~name:"setup" () in
      let item =
        Coord.Recipes.enqueue c ~queue:(Proto.input_queue_ns ns) "junk"
      in
      let p = persist ens in
      let gs = Coord.Ensemble.group_stats ens in
      let cmds_before = gs.Coord.Types.batched_cmds in
      let t = txn 21 in
      Persist.defer p;
      t.Txn.state <- Txn.Started;
      Persist.write p t;
      Persist.offer p 21;
      Persist.delete p item;
      Persist.release p;
      Persist.barrier p;
      Alcotest.(check int) "one command carries record, offer and delete" 1
        (gs.Coord.Types.batched_cmds - cmds_before);
      Alcotest.(check bool_c) "the record, written once" true
        (record c 21 = Some (Txn.Started, 1));
      Alcotest.(check (list string)) "the offer" [ "21" ]
        (List.map snd
           (Coord.Client.children_values c (Proto.phy_queue_ns ns) 10));
      Alcotest.(check bool_c) "the consumed item deleted" true
        (Coord.Client.get c item = None))

(* While one multi waits for its receipt, two more windows are released:
   they go out together as the next command once the receipt is in, each
   window's ops in release order (not id order), and nothing counts as
   finished before its ack.  Each window offers its txn, so the phyQ's
   sequence numbers show the order the offers applied in. *)
let test_releases_merge_while_in_flight () =
  Drive.ensemble (fun _sim ens ->
      ignore (Coord.Ensemble.await_leader ens);
      let c = Coord.Ensemble.connect ens ~name:"reader" () in
      let p = persist ens in
      let gs = Coord.Ensemble.group_stats ens in
      let cmds_before = gs.Coord.Types.batched_cmds in
      let window id =
        Persist.defer p;
        let t = txn id in
        t.Txn.state <- Txn.Started;
        Persist.write p t;
        Persist.offer p id;
        Persist.release p
      in
      window 10;
      Des.Proc.sleep 0.0001;
      Alcotest.(check int) "first window (record and offer) in flight" 2
        (Persist.unfinished p);
      window 12;
      window 11;
      Alcotest.(check int) "in flight plus queued" 6 (Persist.unfinished p);
      Persist.barrier p;
      Alcotest.(check int) "all acked" 0 (Persist.unfinished p);
      Alcotest.(check int) "two commands, the later windows merged" 2
        (gs.Coord.Types.batched_cmds - cmds_before);
      Alcotest.(check (list string)) "offers applied in release order"
        [ "10"; "12"; "11" ]
        (List.map snd
           (Coord.Client.children_values c (Proto.phy_queue_ns ns) 10));
      List.iter
        (fun id ->
          Alcotest.(check bool_c)
            (Printf.sprintf "record %d written once" id)
            true
            (record c id = Some (Txn.Started, 1)))
        [ 10; 11; 12 ])

(* A deleted key is reported as deleting from its delete until its ack. *)
let test_deletes_tracked_until_acked () =
  Drive.ensemble (fun _sim ens ->
      ignore (Coord.Ensemble.await_leader ens);
      let p = persist ens in
      let c = Coord.Ensemble.connect ens ~name:"setup" () in
      let item =
        Coord.Recipes.enqueue c ~queue:(Proto.input_queue_ns ns) "junk"
      in
      Persist.defer p;
      Persist.delete p item;
      Persist.release p;
      Alcotest.(check bool_c) "deleting once released" true
        (Persist.deleting p item);
      Alcotest.(check int) "one delete pending" 1 (Persist.deleting_count p);
      Persist.barrier p;
      Alcotest.(check bool_c) "not deleting once acked" false
        (Persist.deleting p item);
      Alcotest.(check bool_c) "item gone" true (Coord.Client.get c item = None))

(* ------------------------------------------------------------------ *)
(* Worker take *)

(* A Started txn offered to the phyQ, an optional executing marker planted
   by another session, and one worker; returns once the phyQ drained and
   a result landed, with the result count and the marker left behind. *)
let run_take ~foreign_marker =
  let results = ref 0 and marker_left = ref None in
  Drive.ensemble (fun sim ens ->
      ignore (Coord.Ensemble.await_leader ens);
      let c = Coord.Ensemble.connect ens ~name:"setup" () in
      let other = Coord.Ensemble.connect ens ~name:"other-worker" () in
      let p = persist ens in
      let t = txn 31 in
      t.Txn.state <- Txn.Started;
      t.Txn.start_seq <- Some 1;
      Persist.write_now p t;
      let marker = Proto.executing_key_ns ns 31 in
      if foreign_marker then
        ignore
          (Coord.Client.create other ~ephemeral:true ~key:marker
             ~value:"worker-9" ());
      Persist.offer p 31;
      let w =
        Worker.create ~ns ~stats:(Stats.fresh_stats ()) ~name:"worker-0"
          ~client:(Coord.Ensemble.connect ens ~name:"worker-0" ())
          ~mode:(Worker.Logical_only 0.01) ~devices:(fun _ -> None) ~sim ()
      in
      Worker.start w;
      let input = Proto.input_queue_ns ns and phy = Proto.phy_queue_ns ns in
      let rec wait n =
        if n = 0 then Alcotest.fail "the phyQ item never drained"
        else if
          Coord.Client.get_children c phy = []
          && Coord.Client.get_children c input <> []
        then ()
        else begin
          Des.Proc.sleep 0.1;
          wait (n - 1)
        end
      in
      wait 100;
      Des.Proc.sleep 1.;
      results :=
        List.length
          (List.filter
             (fun key ->
               match Coord.Client.get c key with
               | Some (v, _) -> (
                 match Proto.input_of_string v with
                 | Ok (Proto.Result { txn_id = 31; _ }) -> true
                 | _ -> false)
               | None -> false)
             (Coord.Client.get_children c input));
      marker_left := Option.map fst (Coord.Client.get c marker);
      Worker.crash w);
  (!results, !marker_left)

let test_take_claims_marker () =
  let results, marker = run_take ~foreign_marker:false in
  Alcotest.(check int) "exactly one result" 1 results;
  Alcotest.(check (option string)) "own marker released at finish" None marker

(* A marker already held by another worker must not wedge the item at the
   queue head: the take goes ahead without a claim of its own, and leaves
   the other worker's marker alone. *)
let test_take_past_foreign_marker () =
  let results, marker = run_take ~foreign_marker:true in
  Alcotest.(check int) "exactly one result" 1 results;
  Alcotest.(check (option string)) "foreign marker untouched" (Some "worker-9")
    marker

(* Started txns [ids] on the phyQ and [workers] workers of ranks 0, 1, …
   started at once; returns the txn ids whose results arrived, once one per
   id has, and the workers' shared counters. *)
let run_workers ~ids ~workers =
  let stats = Stats.fresh_stats () and results = ref [] in
  Drive.ensemble (fun sim ens ->
      ignore (Coord.Ensemble.await_leader ens);
      let c = Coord.Ensemble.connect ens ~name:"setup" () in
      let p = persist ens in
      Persist.defer p;
      List.iter
        (fun id ->
          let t = txn id in
          t.Txn.state <- Txn.Started;
          t.Txn.start_seq <- Some id;
          Persist.write p t;
          Persist.offer p id)
        ids;
      Persist.release p;
      Persist.barrier p;
      let workers =
        List.init workers (fun rank ->
            let name = Printf.sprintf "worker-%d" rank in
            Worker.create ~ns ~rank ~stats
              ~name ~client:(Coord.Ensemble.connect ens ~name ())
              ~mode:(Worker.Logical_only 0.01) ~devices:(fun _ -> None) ~sim ())
      in
      List.iter Worker.start workers;
      let input = Proto.input_queue_ns ns in
      let rec wait n =
        if n = 0 then Alcotest.fail "the results never arrived"
        else if
          List.length (Coord.Client.get_children c input) < List.length ids
        then begin
          Des.Proc.sleep 0.05;
          wait (n - 1)
        end
      in
      wait 100;
      results :=
        List.filter_map
          (fun key ->
            match Coord.Client.get c key with
            | Some (v, _) -> (
              match Proto.input_of_string v with
              | Ok (Proto.Result { txn_id; _ }) -> Some txn_id
              | _ -> None)
            | None -> None)
          (Coord.Client.get_children c input);
      List.iter Worker.crash workers);
  (List.sort compare !results, stats)

(* Four Started txns on the phyQ and four workers of ranks 0-3 started at
   once: each takes a different item, so no take loses a race. *)
let test_workers_take_distinct_items () =
  let results, stats = run_workers ~ids:[ 41; 42; 43; 44 ] ~workers:4 in
  Alcotest.(check (list int)) "four distinct takes" [ 41; 42; 43; 44 ] results;
  Alcotest.(check int) "no lost race" 0 stats.Stats.take_conflicts

(* One item and two workers: both read it as their first candidate, one
   take wins and the other is counted as lost. *)
let test_lost_take_counted () =
  let results, stats = run_workers ~ids:[ 51 ] ~workers:2 in
  Alcotest.(check (list int)) "one take ran" [ 51 ] results;
  Alcotest.(check int) "one lost race" 1 stats.Stats.take_conflicts

(* ------------------------------------------------------------------ *)
(* Recovery *)

let host h = Data.Path.to_string (Tcloud.Setup.compute_path h)

let simulate env tree proc args =
  match Logical.simulate env ~tree ~proc ~args with
  | Ok s -> (s.Logical.new_tree, s.Logical.log)
  | Error e -> Alcotest.failf "%s: %s" proc e

let spawn env tree ~vm ~h =
  simulate env tree "spawnVM"
    (Tcloud.Procs.spawn_vm_args ~vm ~template:"base.img" ~mem_mb:512
       ~storage:(Data.Path.to_string (Tcloud.Setup.storage_path 0))
       ~host:(host h))

let stored ?(args = []) ~id ~state ~seq ~proc log =
  let t = Txn.make ~id ~proc ~args ~submitted_at:0. in
  t.Txn.state <- state;
  t.Txn.start_seq <- Some seq;
  t.Txn.log <- log;
  t

let subtree tree h =
  match Data.Tree.subtree tree (Tcloud.Setup.compute_path h) with
  | Ok node -> node
  | Error e -> Alcotest.fail (Data.Tree.error_to_string e)

(* Write a checkpoint and records, then recover them the way a new leader
   does: load, read, replay, rebuild.  Returns the tree and the rebuild. *)
let recover ens ~shard ~checkpoint:(seq, tree) env records =
  let client = Coord.Ensemble.connect ens ~name:"leader" () in
  Alcotest.(check bool_c) "checkpoint written" true
    (Recovery.save_checkpoint ~seq tree client ~ns);
  let persist = Persist.create ~name:"leader" ~ns ~client in
  List.iter (Persist.write_now persist) records;
  let checkpoint = Recovery.load_checkpoint client ~ns in
  let records = Recovery.records ~name:"leader" client ~ns in
  let tree = Recovery.replay ~name:"leader" env checkpoint ~shard records in
  ( tree,
    Recovery.rebuild
      (Recovery.ledger ~name:"leader" ~ns ~shard ~persist ~on_prune:ignore)
      client ~checkpoint ~txns:(Hashtbl.create 8) ~locks:(Mglock.create ())
      ~sched:(Sched.create ~stats:(Stats.fresh_stats ()) ())
      ~twopc:
        (Twopc.create ~stats:(Stats.fresh_stats ()) ~name:"leader"
           ~gclient:client ~shard ~timeout:10. ~record:true
           (Coord.Ensemble.sim ens))
      records )

let test_replay_in_start_order () =
  Drive.ensemble (fun sim ens ->
      ignore (Coord.Ensemble.await_leader ens);
      let inv = Tcloud.Setup.build ~rng:(Des.Sim.rng sim) Tcloud.Setup.small in
      let env = inv.Tcloud.Setup.env and tree0 = inv.Tcloud.Setup.tree in
      (* Below the checkpoint: already folded into it, must not replay. *)
      let _, old = spawn env tree0 ~vm:"old" ~h:0 in
      let tree_a, log_a = spawn env tree0 ~vm:"r1" ~h:0 in
      let tree_b, log_b =
        simulate env tree_a "stopVM" (Tcloud.Procs.stop_vm_args ~host:(host 0) ~vm:"r1")
      in
      (* Key (id) order is the reverse of start order: replaying by key
         would stop r1 before it exists. *)
      let records =
        [ stored ~id:1 ~state:Txn.Committed ~seq:1 ~proc:"spawnVM" old;
          stored ~id:2 ~state:Txn.Started ~seq:3 ~proc:"stopVM" log_b;
          stored ~id:3 ~state:Txn.Committed ~seq:2 ~proc:"spawnVM" log_a;
          stored ~id:4 ~state:(Txn.Aborted "x") ~seq:4 ~proc:"spawnVM" old ]
      in
      let tree, r =
        recover ens ~shard:(Shard.singleton ~roots:[]) ~checkpoint:(1, tree0)
          env records
      in
      Alcotest.(check bool_c) "tree = checkpoint + A + B" true
        (Data.Tree.equal tree tree_b);
      Alcotest.(check int) "next start seq past every record" 5
        r.Recovery.next_start_seq)

let test_cross_coordinator_replays_own_slice () =
  Drive.ensemble (fun sim ens ->
      ignore (Coord.Ensemble.await_leader ens);
      let inv = Tcloud.Setup.build ~rng:(Des.Sim.rng sim)
          { Tcloud.Setup.small with Tcloud.Setup.hypervisors = [ "xen" ] }
      in
      let env = inv.Tcloud.Setup.env in
      let base, _ = spawn env inv.Tcloud.Setup.tree ~vm:"m" ~h:0 in
      let roots = List.map Devices.Device.root inv.Tcloud.Setup.devices in
      let owner h = Shard.owner_of (Shard.make ~sid:0 ~shards:2 roots) (Tcloud.Setup.compute_path h) in
      Alcotest.(check bool_c) "hosts 0 and 1 on different shards" true
        (owner 0 <> owner 1);
      let shard = Shard.make ~sid:(owner 1) ~shards:2 roots in
      let args =
        Tcloud.Procs.migrate_vm_args ~src:(host 0) ~dst:(host 1) ~vm:"m"
      in
      let moved, log = simulate env base "migrateVM" args in
      let txn = stored ~args ~id:2 ~state:Txn.Committed ~seq:1 ~proc:"migrateVM" log in
      let tree, _ = recover ens ~shard ~checkpoint:(0, base) env [ txn ] in
      Alcotest.(check bool_c) "own host replayed" true
        (Data.Tree.equal (subtree tree 1) (subtree moved 1));
      Alcotest.(check bool_c) "foreign host untouched" true
        (Data.Tree.equal (subtree tree 0) (subtree base 0));
      Alcotest.(check bool_c) "the migrate did change the foreign host" false
        (Data.Tree.equal (subtree moved 0) (subtree base 0)))

(* A checkpoint writes the changed device roots as overlays over the
   base, and a change outside every device root as a new base; either
   loads back as the tree and meta it was taken from. *)
let test_checkpoint_layout () =
  Drive.ensemble (fun sim ens ->
      ignore (Coord.Ensemble.await_leader ens);
      let inv = Tcloud.Setup.build ~rng:(Des.Sim.rng sim) Tcloud.Setup.small in
      let env = inv.Tcloud.Setup.env and tree0 = inv.Tcloud.Setup.tree in
      let roots = List.map Devices.Device.root inv.Tcloud.Setup.devices in
      let client = Coord.Ensemble.connect ens ~name:"leader" () in
      Alcotest.(check bool_c) "base written" true
        (Recovery.save_checkpoint ~seq:0 tree0 client ~ns);
      let persist = Persist.create ~name:"leader" ~ns ~client in
      let ledger =
        Recovery.ledger ~name:"leader" ~ns ~shard:(Shard.singleton ~roots)
          ~persist ~on_prune:ignore
      in
      let keys () =
        Coord.Client.get_children client (Proto.checkpoint_prefix_ns ns)
      in
      let take (c : Recovery.checkpoint) =
        Recovery.checkpoint ledger ~seq:c.Recovery.seq
          ~max_request_seq:c.Recovery.max_request_seq
          ~quarantine:c.Recovery.quarantine ~started:c.Recovery.started
          c.Recovery.tree;
        Persist.barrier persist;
        let loaded = Recovery.load_checkpoint client ~ns in
        Alcotest.(check bool_c) "tree loads back" true
          (Data.Tree.equal c.Recovery.tree loaded.Recovery.tree);
        Alcotest.(check (list int)) "meta loads back"
          [ c.Recovery.seq; c.Recovery.max_request_seq ]
          [ loaded.Recovery.seq; loaded.Recovery.max_request_seq ];
        Alcotest.(check (list int)) "started" c.Recovery.started
          loaded.Recovery.started;
        Alcotest.(check (list string)) "quarantine"
          (List.map Data.Path.to_string c.Recovery.quarantine)
          (List.map Data.Path.to_string loaded.Recovery.quarantine)
      in
      (* The keys a checkpoint wrote: those new or at a new version. *)
      let written c =
        let versions () =
          List.map (fun k -> (k, Option.map snd (Coord.Client.get client k))) (keys ())
        in
        let before = versions () in
        take c;
        List.filter_map
          (fun (k, v) -> if List.assoc_opt k before = Some v then None else Some k)
          (versions ())
      in
      let base_key = Proto.checkpoint_key_ns ns in
      let base = [ base_key; Proto.checkpoint_meta_key_ns ns ] in
      (* A fresh ledger has no previous tree: its first checkpoint is a
         new base. *)
      let c0 =
        { Recovery.seq = 0; tree = tree0; max_request_seq = 0; quarantine = [];
          started = [] }
      in
      Alcotest.(check (list string)) "the first writes a new base and the meta"
        base (written c0);
      Alcotest.(check (list string)) "the first is a new base" base (keys ());
      let tree1, _ = spawn env tree0 ~vm:"c1" ~h:1 in
      let c1 =
        { Recovery.seq = 1; tree = tree1; max_request_seq = 4;
          quarantine = [ Tcloud.Setup.compute_path 2 ]; started = [ 4 ] }
      in
      let base_version () = Option.map snd (Coord.Client.get client base_key) in
      let v0 = base_version () in
      let overlays =
        [ Proto.overlay_key_ns ns (Tcloud.Setup.compute_path 1);
          Proto.overlay_key_ns ns (Tcloud.Setup.storage_path 0) ]
      in
      Alcotest.(check (list string)) "host 1 and storage 0, then the meta"
        (List.sort compare (Proto.checkpoint_meta_key_ns ns :: overlays))
        (List.sort compare (written c1));
      Alcotest.(check bool_c) "the base is not rewritten" true (base_version () = v0);
      Alcotest.(check (list string)) "the base, the meta and two overlays"
        (List.sort compare (base @ overlays))
        (keys ());
      let tree2 =
        match Data.Tree.set_attr tree1 (Data.Path.v "/vmRoot") "note" (Data.Value.Str "x") with
        | Ok tree -> tree
        | Error e -> Alcotest.fail (Data.Tree.error_to_string e)
      in
      Alcotest.(check (list string)) "a change outside the roots writes a new base"
        base
        (written { c1 with Recovery.seq = 2; tree = tree2 });
      Alcotest.(check (list string)) "a new base, no overlay" base (keys ()))

(* The fold rule: a checkpoint prunes single-shard records only, and
   becomes due at exactly 64 of them.  Cross-shard coordinator and
   participant records are never folded, however many end. *)
let test_checkpoint_fold_rule () =
  Drive.ensemble (fun sim ens ->
      ignore (Coord.Ensemble.await_leader ens);
      let inv = Tcloud.Setup.build ~rng:(Des.Sim.rng sim) Tcloud.Setup.small in
      let roots = List.map Devices.Device.root inv.Tcloud.Setup.devices in
      let shard = Shard.make ~sid:0 ~shards:2 roots in
      let owned = List.filter (Shard.owns shard) roots
      and foreign = List.filter (fun r -> not (Shard.owns shard r)) roots in
      let client = Coord.Ensemble.connect ens ~name:"leader" () in
      let persist = Persist.create ~name:"leader" ~ns ~client in
      let pruned = ref [] in
      let ledger =
        Recovery.ledger ~name:"leader" ~ns ~shard ~persist
          ~on_prune:(fun records -> pruned := List.map fst records)
      in
      let ended ~id ~proc paths =
        let args = List.map (fun p -> Data.Value.Str (Data.Path.to_string p)) paths in
        stored ~args ~id ~state:Txn.Committed ~seq:id ~proc []
      in
      let single id = ended ~id ~proc:"stopVM" [ List.hd owned ] in
      let cross = ended ~proc:"migrateVM" [ List.hd owned; List.hd foreign ] in
      let part id = ended ~id ~proc:"__2pc_participant" [ List.hd owned ] in
      Alcotest.(check bool_c) "the coordinator is cross-shard" true
        (Twopc.is_cross shard (cross ~id:1000));
      Alcotest.(check bool_c) "the shadow is a participant" true
        (Twopc.is_participant (part 2000));
      List.iter
        (fun id ->
          Recovery.fold ledger (single id);
          Recovery.fold ledger (cross ~id:(1000 + id));
          Recovery.fold ledger (part (2000 + id)))
        (List.init 63 (fun i -> i + 1));
      Alcotest.(check bool_c) "63 folded: not due" false (Recovery.due ledger);
      Recovery.fold ledger (single 64);
      Alcotest.(check bool_c) "64 folded: due" true (Recovery.due ledger);
      Recovery.checkpoint ledger ~seq:64 ~max_request_seq:64 ~quarantine:[]
        ~started:[] inv.Tcloud.Setup.tree;
      Alcotest.(check (list int)) "only the single-shard records pruned"
        (List.init 64 (fun i -> i + 1))
        !pruned;
      Alcotest.(check bool_c) "not due after the checkpoint" false
        (Recovery.due ledger))

(* ------------------------------------------------------------------ *)
(* Platform runs on the non-blocking writer *)

let host_args h =
  let host = host h and vm = Tcloud.Setup.prepop_vm_name ~host:h ~index:0 in
  ( ("startVM", Tcloud.Procs.start_vm_args ~host ~vm),
    ("stopVM", Tcloud.Procs.stop_vm_args ~host ~vm) )

(* One shard of [hosts] compute hosts, one prepopulated (stopped) VM each. *)
let platform ?(controllers = 1) ?(mode = Platform.Full) ~seed ~hosts () =
  let sim = Des.Sim.create ~seed () in
  let size =
    { Tcloud.Setup.small with
      Tcloud.Setup.compute_hosts = hosts;
      prepopulated_vms_per_host = 1 }
  in
  let inv = Tcloud.Setup.build ~rng:(Des.Sim.rng sim) size in
  let p =
    Platform.create
      { Platform.default_spec with
        Platform.controllers;
        workers = 4;
        mode;
        controller_config = Tcloud.Setup.controller_config;
        controller_session_timeout = 1.0;
        submit_clients = hosts }
      inv.Tcloud.Setup.env ~initial_tree:inv.Tcloud.Setup.tree
      ~devices:inv.Tcloud.Setup.devices sim
  in
  (sim, inv, p)

let run_platform sim p body =
  let quiesced = Platform.run p body in
  (match Des.Sim.failures sim with
   | [] -> ()
   | (who, exn) :: _ ->
     Alcotest.failf "process %s crashed: %s" who (Printexc.to_string exn));
  quiesced

(* The run is driven to quiescence without awaiting a single txn, so it
   is quiescence alone that must wait for the writer: every record in the
   store says Committed, and both queues are empty. *)
let test_quiescence_waits_for_writes () =
  let sim, _inv, p = platform ~mode:(Platform.Logical_only 0.002) ~seed:3 ~hosts:8 () in
  let ids = ref [] in
  Alcotest.(check bool_c) "quiesced" true
    (run_platform sim p (fun () ->
         ids :=
           List.init 8 (fun h ->
               let proc, args = fst (host_args h) in
               Platform.submit p ~proc ~args)));
  let store = Coord.Ensemble.leader_store (Platform.coord p) in
  List.iter
    (fun id ->
      match Coord.Store.get store (Txn.record_key_ns ns id) with
      | None -> Alcotest.failf "txn %d: no record" id
      | Some (v, _) -> (
        match Txn.of_string v with
        | Ok t ->
          Alcotest.(check bool_c)
            (Printf.sprintf "txn %d durable as committed" id)
            true (t.Txn.state = Txn.Committed)
        | Error e -> Alcotest.fail e))
    !ids;
  List.iter
    (fun queue ->
      Alcotest.(check int) (queue ^ " empty") 0
        (Coord.Store.count_children store queue))
    [ Proto.input_queue_ns ns; Proto.phy_queue_ns ns ]

(* A TERM for a Started txn is processed once: the controller re-reads
   inputQ while the signal item's delete is still in flight, and must
   skip the item rather than count (and act on) the signal again. *)
let test_in_flight_delete_not_reprocessed () =
  let sim, _inv, p = platform ~mode:(Platform.Logical_only 2.0) ~seed:5 ~hosts:1 () in
  let state = ref None in
  Alcotest.(check bool_c) "quiesced" true
    (run_platform sim p (fun () ->
         let proc, args = fst (host_args 0) in
         let id = Platform.submit p ~proc ~args in
         let rec started () =
           if Platform.txn_state p id <> Some Txn.Started then begin
             Des.Proc.sleep 0.01;
             started ()
           end
         in
         started ();
         Platform.signal p id Proto.Term;
         state := Some (Platform.await p id)));
  Alcotest.(check bool_c) "committed (logical workers ignore TERM)" true
    (!state = Some Txn.Committed);
  Alcotest.(check int) "the signal was handled once" 1
    (Platform.shard_stats p 0).Controller.terms

(* Every device agrees with the leader's logical tree. *)
let layers_equal inv p =
  let tree = Platform.logical_tree p in
  List.for_all
    (fun device ->
      match Data.Tree.subtree tree (Devices.Device.root device) with
      | Ok logical -> Data.Tree.equal logical (Devices.Device.export device)
      | Error _ -> false)
    inv.Tcloud.Setup.devices

(* 16 sessions each toggle their own VM (start, stop) six times; the
   leading controller is killed [kill_at] seconds after it is elected and
   the standby takes over.  Returns whether the run quiesced under the
   standby with every txn committed, every VM stopped on the devices and
   in the tree, and the layers equal. *)
let toggle_run_survives_kill ~seed ~kill_at =
  let hosts = 16 and rounds = 6 in
  let sim, inv, p = platform ~controllers:2 ~seed ~hosts () in
  let states = ref [] and killed = ref None in
  ignore
    (Des.Proc.spawn ~name:"assassin" sim (fun () ->
         ignore (Platform.await_leader_controller p);
         Des.Proc.sleep kill_at;
         killed := Platform.leader_index p;
         Option.iter (Platform.kill_controller p) !killed));
  let quiesced =
    run_platform sim p (fun () ->
        let session h () =
          let start, stop = host_args h in
          for _ = 1 to rounds do
            List.iter
              (fun (proc, args) ->
                let state = Platform.run_txn p ~proc ~args in
                states := state :: !states)
              [ start; stop ]
          done
        in
        List.init hosts (fun h ->
            Des.Proc.spawn ~name:(Printf.sprintf "session-%d" h) sim (session h))
        |> List.iter (fun proc -> ignore (Des.Proc.await proc)))
  in
  let vm_stopped h =
    let vm = Tcloud.Setup.prepop_vm_name ~host:h ~index:0 in
    Data.Tree.get_attr (Platform.logical_tree p)
      (Data.Path.child (Tcloud.Setup.compute_path h) vm)
      Devices.Schema.attr_state
    = Some (Data.Value.Str Devices.Schema.state_stopped)
  in
  quiesced
  && !killed <> None
  && Platform.leader_index p <> !killed
  && List.length !states = hosts * rounds * 2
  && List.for_all (fun s -> s = Txn.Committed) !states
  && List.for_all vm_stopped (List.init hosts Fun.id)
  && layers_equal inv p

let prop_leader_kill_anywhere =
  QCheck.Test.make ~name:"a controller killed at any time: every txn once"
    ~count:12
    QCheck.(pair (int_range 1 1000) (float_range 0. 0.4))
    (fun (seed, kill_at) -> toggle_run_survives_kill ~seed ~kill_at)

(* The md5 and length of three encodings in the positional grammar: a
   64-host tree, a committed spawnVM record and a checkpoint (base, one
   overlay, meta).  A codec change that moves one byte must change these
   on purpose, and the lengths fail a change that bloats the encoding. *)
let test_pinned_wire_bytes () =
  let md5 s = Digest.to_hex (Digest.string s) in
  let pin what ~bytes expected s =
    Alcotest.(check string) what expected (md5 s);
    Alcotest.(check int) (what ^ " bytes") bytes (String.length s)
  in
  let inv =
    Tcloud.Setup.build
      { Tcloud.Setup.small with Tcloud.Setup.compute_hosts = 64 }
  in
  let env = inv.Tcloud.Setup.env and tree0 = inv.Tcloud.Setup.tree in
  pin "64-host tree" ~bytes:2036 "390b70d7fd555c554ce5f525be3e9308"
    (Data.Tree.to_string tree0);
  let args =
    Tcloud.Procs.spawn_vm_args ~vm:"pinned" ~template:"base.img" ~mem_mb:512
      ~storage:(Data.Path.to_string (Tcloud.Setup.storage_path 0))
      ~host:(host 1)
  in
  let s =
    match Logical.simulate env ~tree:tree0 ~proc:"spawnVM" ~args with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let txn = Txn.make ~id:42 ~proc:"spawnVM" ~args ~submitted_at:12.625 in
  txn.Txn.state <- Txn.Committed;
  txn.Txn.log <- s.Logical.log;
  txn.Txn.locks <- s.Logical.locks;
  txn.Txn.start_seq <- Some 7;
  pin "committed spawnVM record" ~bytes:645 "1ef485436483f3ea7af7e690941924df"
    (Txn.to_string txn);
  Drive.ensemble (fun _ ens ->
      ignore (Coord.Ensemble.await_leader ens);
      let roots = List.map Devices.Device.root inv.Tcloud.Setup.devices in
      let client = Coord.Ensemble.connect ens ~name:"leader" () in
      let persist = Persist.create ~name:"leader" ~ns ~client in
      let ledger =
        Recovery.ledger ~name:"leader" ~ns ~shard:(Shard.singleton ~roots)
          ~persist ~on_prune:ignore
      in
      let take ~seq tree =
        Recovery.checkpoint ledger ~seq ~max_request_seq:(seq + 40)
          ~quarantine:[ Tcloud.Setup.compute_path 2 ] ~started:[ seq; 9 ] tree;
        Persist.barrier persist
      in
      take ~seq:3 tree0;
      take ~seq:4 s.Logical.new_tree;
      let value key =
        match Coord.Client.get client key with
        | Some (value, _) -> value
        | None -> Alcotest.failf "%s missing" key
      in
      pin "checkpoint base, overlay and meta" ~bytes:2268 "8cfe669e0f03973b53046c187b38889a"
        (String.concat "\n"
           [ value (Proto.checkpoint_key_ns ns);
             value (Proto.overlay_key_ns ns (Tcloud.Setup.compute_path 1));
             value (Proto.checkpoint_meta_key_ns ns) ]))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "protocols"
    [
      ( "twopc",
        [
          QCheck_alcotest.to_alcotest prop_msg_roundtrip;
          QCheck_alcotest.to_alcotest prop_decision_roundtrip;
          Alcotest.test_case "racing proposals obey the first record" `Quick
            test_racing_proposals_agree;
          Alcotest.test_case "ablated record: every proposal wins" `Quick
            test_ablated_record_stores_nothing;
          Alcotest.test_case "redelivered Prepare of an ended shadow: No again"
            `Quick test_redelivered_prepare_votes_no_again;
        ] );
      ( "persist",
        [
          Alcotest.test_case "deferred record written once, latest state"
            `Quick test_deferred_record_written_once;
          Alcotest.test_case "no phyQ offer before its Started record" `Quick
            test_offer_follows_record;
          Alcotest.test_case "Started record and phyQ item share a log entry"
            `Quick test_started_and_offer_share_an_entry;
          Alcotest.test_case "releases during an in-flight multi merge"
            `Quick test_releases_merge_while_in_flight;
          Alcotest.test_case "deletes tracked until acked" `Quick
            test_deletes_tracked_until_acked;
        ] );
      ( "worker",
        [
          Alcotest.test_case "take claims the marker, finish releases it"
            `Quick test_take_claims_marker;
          Alcotest.test_case "take goes past a foreign executing marker"
            `Quick test_take_past_foreign_marker;
          Alcotest.test_case "four workers take four distinct items" `Quick
            test_workers_take_distinct_items;
          Alcotest.test_case "two workers race for one item" `Quick
            test_lost_take_counted;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "replay in start_seq order past the checkpoint"
            `Quick test_replay_in_start_order;
          Alcotest.test_case "cross-shard coordinator replays its own slice"
            `Quick test_cross_coordinator_replays_own_slice;
          Alcotest.test_case "checkpoint: changed roots as overlays, else a new base"
            `Quick test_checkpoint_layout;
          Alcotest.test_case "checkpoint: cross-shard records never folded, due at 64"
            `Quick test_checkpoint_fold_rule;
          Alcotest.test_case "codec: pinned wire bytes" `Quick
            test_pinned_wire_bytes;
        ] );
      ( "platform",
        [
          Alcotest.test_case "quiescence waits for queued writes" `Quick
            test_quiescence_waits_for_writes;
          Alcotest.test_case "an item being deleted is not processed twice"
            `Quick test_in_flight_delete_not_reprocessed;
          QCheck_alcotest.to_alcotest prop_leader_kill_anywhere;
        ] );
    ]
