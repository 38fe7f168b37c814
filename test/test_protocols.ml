(* The controller's protocol modules, each against a bare coordination
   ensemble (no platform): Twopc's decision record and codec, Persist's
   deferred write path, and Recovery's replay. *)

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

let gen_sexp =
  QCheck.Gen.(
    sized_size (int_range 0 3)
    @@ fix (fun self n ->
           if n = 0 then map (fun s -> Data.Sexp.Atom s) gen_name
           else
             frequency
               [ (1, map (fun s -> Data.Sexp.Atom s) gen_name);
                 (2, map (fun l -> Data.Sexp.List l)
                       (list_size (int_range 0 3) (self (n - 1)))) ]))

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
         let* snaps = list_size (int_range 0 3) (pair gen_path gen_sexp) in
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
    (fun msg -> Twopc.msg_of_string (Twopc.msg_to_string msg) = Ok msg)

let prop_decision_roundtrip =
  QCheck.Test.make ~name:"every 2pc decision survives the codec" ~count:300
    (QCheck.make gen_decision ~print:Twopc.decision_to_string)
    (fun d -> Twopc.decision_of_string (Twopc.decision_to_string d) = Ok d)

(* ------------------------------------------------------------------ *)
(* Twopc decision record *)

let two_shards = Shard.make ~sid:0 ~shards:2 [ Data.Path.v "/a"; Data.Path.v "/b" ]

let twopc ?(record = true) sim ens sid =
  Twopc.create
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

(* ------------------------------------------------------------------ *)
(* Persist *)

let ns = Proto.default_ns

let persist ?(pool = 2) ens =
  let client = Coord.Ensemble.connect ens ~name:"ctl" () in
  let pool =
    List.init pool (fun i ->
        Coord.Ensemble.connect ens ~name:(Printf.sprintf "pool-%d" i) ())
  in
  let p =
    Persist.create ~sim:(Coord.Ensemble.sim ens) ~name:"ctl" ~ns ~client ~pool
  in
  ignore (Persist.start_workers p);
  p

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
    (Recovery.save_checkpoint client ~ns ~seq tree);
  let persist =
    Persist.create ~sim:(Coord.Ensemble.sim ens) ~name:"leader" ~ns ~client
      ~pool:[]
  in
  List.iter (Persist.write_now persist) records;
  let checkpoint_seq, tree = Recovery.load_checkpoint client ~ns in
  let records = Recovery.records ~name:"leader" client ~ns in
  let tree =
    Recovery.replay ~name:"leader" env tree ~checkpoint_seq ~shard records
  in
  ( tree,
    Recovery.rebuild ~name:"leader" client ~ns ~shard ~checkpoint_seq
      ~txns:(Hashtbl.create 8) ~locks:(Mglock.create ())
      ~sched:(Sched.create `Fifo)
      ~twopc:
        (Twopc.create ~name:"leader" ~gclient:client ~shard ~timeout:10.
           ~record:true (Coord.Ensemble.sim ens))
      ~persist records )

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
        ] );
      ( "persist",
        [
          Alcotest.test_case "deferred record written once, latest state"
            `Quick test_deferred_record_written_once;
          Alcotest.test_case "no phyQ offer before its Started record" `Quick
            test_offer_follows_record;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "replay in start_seq order past the checkpoint"
            `Quick test_replay_in_start_order;
          Alcotest.test_case "cross-shard coordinator replays its own slice"
            `Quick test_cross_coordinator_replays_own_slice;
        ] );
    ]
