(* Tests for the coordination service: the replicated store, the Raft-style
   replica group, client sessions, and the queue/election recipes. *)

open Coord

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

let ok_create what = function
  | Ok key -> key
  | Error e -> Alcotest.failf "%s: %s" what (Format.asprintf "%a" Types.pp_op_error e)

(* ------------------------------------------------------------------ *)
(* Store unit tests (the replicated state machine in isolation) *)

let mk_create ?(session = 1) ?(req = 1) ?(ephemeral = false) ?(sequential = false)
    key value =
  Types.Create { session; req; key; value; ephemeral; sequential }

let test_store_create_get () =
  let s = Store.create () in
  (match Store.apply s (mk_create "/a" "1") with
   | Types.Created "/a", [ "/a" ] -> ()
   | _ -> Alcotest.fail "create");
  (match Store.get s "/a" with
   | Some ("1", 1) -> ()
   | _ -> Alcotest.fail "get");
  match Store.apply s (mk_create ~req:2 "/a" "other") with
  | Types.Op_failed Types.Key_exists, [] -> ()
  | _ -> Alcotest.fail "duplicate create"

let test_store_sequential () =
  let s = Store.create () in
  let k1 =
    match Store.apply s (mk_create ~sequential:true ~req:1 "/q/item-" "a") with
    | Types.Created k, _ -> k
    | _ -> Alcotest.fail "seq create 1"
  in
  let k2 =
    match Store.apply s (mk_create ~sequential:true ~req:2 "/q/item-" "b") with
    | Types.Created k, _ -> k
    | _ -> Alcotest.fail "seq create 2"
  in
  check bool_c "ordered" true (k1 < k2);
  check (Alcotest.list string_c) "children in order" [ k1; k2 ]
    (Store.children s "/q")

let test_store_versions () =
  let s = Store.create () in
  ignore (Store.apply s (mk_create "/k" "v1"));
  (match Store.apply s (Types.Write { session = 1; req = 2; key = "/k"; value = "v2"; expect_version = Some 1 }) with
   | Types.Written 2, [ "/k" ] -> ()
   | _ -> Alcotest.fail "cas write");
  (match Store.apply s (Types.Write { session = 1; req = 3; key = "/k"; value = "v3"; expect_version = Some 1 }) with
   | Types.Op_failed Types.Bad_version, [] -> ()
   | _ -> Alcotest.fail "stale cas");
  (match Store.apply s (Types.Delete { session = 1; req = 4; key = "/k"; expect_version = Some 9 }) with
   | Types.Op_failed Types.Bad_version, _ -> ()
   | _ -> Alcotest.fail "stale delete");
  match Store.apply s (Types.Delete { session = 1; req = 5; key = "/k"; expect_version = Some 2 }) with
  | Types.Deleted_ok, [ "/k" ] -> ()
  | _ -> Alcotest.fail "delete"

let test_store_upsert () =
  let s = Store.create () in
  (match Store.apply s (Types.Write { session = 1; req = 1; key = "/new"; value = "x"; expect_version = None }) with
   | Types.Written 1, _ -> ()
   | _ -> Alcotest.fail "upsert creates");
  match Store.apply s (Types.Write { session = 1; req = 2; key = "/new"; value = "y"; expect_version = None }) with
  | Types.Written 2, _ -> ()
  | _ -> Alcotest.fail "upsert bumps version"

let test_store_children_direct_only () =
  let s = Store.create () in
  List.iteri
    (fun i key -> ignore (Store.apply s (mk_create ~req:(i + 1) key "v")))
    [ "/q/a"; "/q/b"; "/q/b/nested"; "/qq/c"; "/other" ];
  check (Alcotest.list string_c) "direct children" [ "/q/a"; "/q/b" ]
    (Store.children s "/q")

let test_store_children_values () =
  let s = Store.create () in
  List.iteri
    (fun i (key, value) ->
      ignore (Store.apply s (mk_create ~req:(i + 1) key value)))
    [ ("/q/c", "3"); ("/q/a", "1"); ("/q/a/nested", "x"); ("/q/b", "2");
      ("/qq/d", "4") ];
  let pairs = Alcotest.(list (pair string_c string_c)) in
  check pairs "first two, in key order" [ ("/q/a", "1"); ("/q/b", "2") ]
    (Store.children_values s "/q" 2);
  check pairs "all when n exceeds them"
    [ ("/q/a", "1"); ("/q/b", "2"); ("/q/c", "3") ]
    (Store.children_values s "/q" 10);
  check pairs "none for n = 0" [] (Store.children_values s "/q" 0)

let test_store_ephemeral_expiry () =
  let s = Store.create () in
  ignore (Store.apply s (mk_create ~session:5 ~ephemeral:true "/e1" "x"));
  ignore (Store.apply s (mk_create ~session:5 ~req:2 ~ephemeral:true "/e2" "y"));
  ignore (Store.apply s (mk_create ~session:6 "/p" "z"));
  check (Alcotest.list int_c) "owners" [ 5 ] (Store.ephemeral_owners s);
  (match Store.apply s (Types.Expire_session 5) with
   | Types.Expired_ok, changed ->
     check (Alcotest.list string_c) "expired keys" [ "/e1"; "/e2" ]
       (List.sort compare changed)
   | _ -> Alcotest.fail "expire");
  check bool_c "persistent survives" true (Store.exists s "/p");
  check bool_c "ephemeral gone" false (Store.exists s "/e1")

let test_store_dedup () =
  let s = Store.create () in
  let cmd = mk_create ~session:9 ~req:3 ~sequential:true "/q/item-" "v" in
  let r1, _ = Store.apply s cmd in
  let r2, changed2 = Store.apply s cmd in
  check bool_c "same cached result" true (r1 = r2);
  check int_c "no second key created" 1 (Store.size s);
  check int_c "no changed keys on replay" 0 (List.length changed2)

(* A multi whose last op fails leaves no trace: entries, the sequence
   counter and the changed-key list are as if it never ran. *)
let test_store_multi_all_or_none () =
  let s = Store.create () in
  ignore (Store.apply s (mk_create ~req:1 "/keep" "v"));
  let failing =
    Types.Multi
      {
        session = 1;
        req = 2;
        ops =
          [ Types.Op_create
              { key = "/q/item-"; value = "a"; ephemeral = false; sequential = true };
            Types.Op_write { key = "/keep"; value = "w"; expect_version = None };
            Types.Op_delete { key = "/gone"; expect_version = None };
            Types.Op_delete { key = "/gone"; expect_version = Some 1 } ];
      }
  in
  (match Store.apply s failing with
   | Types.Op_failed Types.Key_missing, [] -> ()
   | r, _ ->
     Alcotest.failf "failing multi: %s"
       (Format.asprintf "%a" Types.pp_op_result r));
  check int_c "no entry added" 1 (Store.size s);
  check (Alcotest.option (Alcotest.pair string_c int_c)) "write undone"
    (Some ("v", 1)) (Store.get s "/keep");
  let fresh = Store.create () in
  let seq_key store =
    match Store.apply store (mk_create ~req:3 ~sequential:true "/q/item-" "b") with
    | Types.Created k, _ -> k
    | _ -> Alcotest.fail "sequential create"
  in
  check string_c "sequence counter restored" (seq_key fresh) (seq_key s);
  match
    Store.apply s
      (Types.Multi
         {
           session = 1;
           req = 4;
           ops =
             [ Types.Op_delete { key = "/gone"; expect_version = None };
               Types.Op_write { key = "/keep"; value = "w"; expect_version = Some 1 } ];
         })
  with
  | Types.Multi_ok [ Types.Deleted_ok; Types.Written 2 ], [ "/keep" ] -> ()
  | r, _ ->
    Alcotest.failf "unconditional delete of a missing key is a no-op: %s"
      (Format.asprintf "%a" Types.pp_op_result r)

let multi_cmd ~req =
  Types.Multi
    {
      session = 5;
      req;
      ops =
        [ Types.Op_create
            { key = "/q/item-"; value = "x"; ephemeral = false; sequential = true };
          Types.Op_write { key = "/rec"; value = "r"; expect_version = None } ];
    }

let test_store_multi_dedup () =
  let s = Store.create () in
  let r1, changed1 = Store.apply s (multi_cmd ~req:7) in
  let r2, changed2 = Store.apply s (multi_cmd ~req:7) in
  (match r1 with
   | Types.Multi_ok [ Types.Created _; Types.Written 1 ] -> ()
   | r -> Alcotest.failf "multi: %s" (Format.asprintf "%a" Types.pp_op_result r));
  check bool_c "retry answers the cached result" true (r1 = r2);
  check int_c "first apply changed both keys" 2 (List.length changed1);
  check int_c "retry changes nothing" 0 (List.length changed2);
  check int_c "applied once" 2 (Store.size s)

let test_store_multi_snapshot () =
  let s = Store.create () in
  let r1, _ = Store.apply s (multi_cmd ~req:3) in
  match
    Result.bind
      (Data.Sexp.of_string (Data.Sexp.to_string (Store.to_sexp s)))
      Store.of_sexp
  with
  | Error e -> Alcotest.fail e
  | Ok restored ->
    let r2, changed = Store.apply restored (multi_cmd ~req:3) in
    check bool_c "cached Multi_ok survives the snapshot" true (r1 = r2);
    check int_c "no re-apply after restore" 0 (List.length changed);
    check int_c "same entries" (Store.size s) (Store.size restored)

let test_store_parent () =
  check (Alcotest.option string_c) "parent" (Some "/a/b")
    (Store.parent "/a/b/c");
  check (Alcotest.option string_c) "no parent" None (Store.parent "nokey")

(* ------------------------------------------------------------------ *)
(* Ensemble: elections and replication *)

let test_single_leader_elected () =
  Drive.ensemble (fun _sim ens ->
      let leader = Ensemble.await_leader ens in
      check bool_c "leader id valid" true (leader >= 0 && leader < 3);
      (* Exactly one leader among live replicas once settled. *)
      Des.Proc.sleep 2.;
      let leaders =
        List.filter
          (fun i -> Replica.is_leader (Ensemble.replica ens i))
          [ 0; 1; 2 ]
      in
      check int_c "exactly one leader" 1 (List.length leaders))

let test_client_kv_roundtrip () =
  Drive.ensemble (fun _sim ens ->
      let c = Ensemble.connect ens ~name:"kv" () in
      let key = ok_create "create" (Client.create c ~key:"/app/cfg" ~value:"v1" ()) in
      check string_c "key" "/app/cfg" key;
      (match Client.get c "/app/cfg" with
       | Some ("v1", 1) -> ()
       | _ -> Alcotest.fail "get after create");
      (match Client.write c ~expect_version:1 ~key:"/app/cfg" ~value:"v2" () with
       | Ok 2 -> ()
       | _ -> Alcotest.fail "cas write");
      (match Client.write c ~expect_version:1 ~key:"/app/cfg" ~value:"v3" () with
       | Error Types.Bad_version -> ()
       | _ -> Alcotest.fail "stale cas rejected");
      (match Client.delete c ~key:"/app/cfg" () with
       | Ok () -> ()
       | _ -> Alcotest.fail "delete");
      check (Alcotest.option Alcotest.pass) "gone" None (Client.get c "/app/cfg");
      Client.close c)

let test_replicas_converge () =
  Drive.ensemble (fun _sim ens ->
      let c = Ensemble.connect ens ~name:"writer" () in
      for i = 1 to 20 do
        ignore
          (ok_create "create"
             (Client.create c ~key:(Printf.sprintf "/data/k%02d" i)
                ~value:(string_of_int i) ()))
      done;
      (* Give followers time to apply. *)
      Des.Proc.sleep 1.;
      List.iter
        (fun i ->
          let store = Replica.store (Ensemble.replica ens i) in
          check int_c
            (Printf.sprintf "replica %d applied all" i)
            20
            (List.length (Store.children store "/data")))
        [ 0; 1; 2 ];
      Client.close c)

let test_watch_key_fires () =
  Drive.ensemble (fun _sim ens ->
      let c = Ensemble.connect ens ~name:"watcher" () in
      let w = Ensemble.connect ens ~name:"writer" () in
      ignore (ok_create "create" (Client.create w ~key:"/watched" ~value:"0" ()));
      Client.watch_key c "/watched";
      ignore
        (Des.Proc.spawn ~name:"trigger" (Ensemble.sim ens) (fun () ->
             Des.Proc.sleep 0.5;
             ignore (Client.write w ~key:"/watched" ~value:"1" ())));
      let fired = Client.await_change c ~timeout:5. in
      check bool_c "watch fired" true fired;
      Client.close c;
      Client.close w)

let test_watch_children_fires () =
  Drive.ensemble (fun _sim ens ->
      let c = Ensemble.connect ens ~name:"watcher" () in
      let w = Ensemble.connect ens ~name:"writer" () in
      Client.watch_children c "/dir";
      ignore
        (Des.Proc.spawn ~name:"trigger" (Ensemble.sim ens) (fun () ->
             Des.Proc.sleep 0.5;
             ignore (Client.create w ~key:"/dir/child" ~value:"x" ())));
      check bool_c "child watch fired" true (Client.await_change c ~timeout:5.);
      Client.close c;
      Client.close w)

(* The head items of a queue with their values, in one query. *)
let test_client_children_values () =
  Drive.ensemble (fun _sim ens ->
      let c = Ensemble.connect ens ~name:"reader" () in
      let keys =
        List.map (fun v -> Recipes.enqueue c ~queue:"/jobs" v) [ "a"; "b"; "c" ]
      in
      check
        Alcotest.(list (pair string_c string_c))
        "two oldest items"
        [ (List.nth keys 0, "a"); (List.nth keys 1, "b") ]
        (Client.children_values c "/jobs" 2);
      Client.close c)

let test_ephemeral_expires_on_close () =
  Drive.ensemble (fun _sim ens ->
      let c = Ensemble.connect ens ~session_timeout:3. ~name:"mortal" () in
      let observer = Ensemble.connect ens ~name:"observer" () in
      ignore
        (ok_create "create"
           (Client.create c ~ephemeral:true ~key:"/presence/me" ~value:"hi" ()));
      check bool_c "present" true
        (Option.is_some (Client.get observer "/presence/me"));
      Client.close c;
      (* Session timeout 3 s + expiry sweep 1 s. *)
      Des.Proc.sleep 6.;
      check bool_c "expired" false
        (Option.is_some (Client.get observer "/presence/me"));
      Client.close observer)

(* Sessions take node ids 3, 4, ... in connect order, with no budget. *)
let test_sessions_without_budget () =
  Drive.ensemble (fun _sim ens ->
      let n = 100 in
      let sessions =
        List.init n (fun i -> Ensemble.connect ens ~name:(Printf.sprintf "s%d" i) ())
      in
      check (Alcotest.list int_c) "ids in connect order"
        (List.init n (fun i -> Types.boot_replicas + i))
        (List.map Client.session_id sessions);
      let last = List.nth sessions (n - 1) in
      ignore (ok_create "last session writes" (Client.create last ~key:"/s" ~value:"100" ()));
      check (Alcotest.option string_c) "write visible" (Some "100")
        (Option.map fst (Client.get (List.hd sessions) "/s"));
      List.iter Client.close sessions)

let test_leader_crash_no_committed_loss () =
  Drive.ensemble (fun _sim ens ->
      let c = Ensemble.connect ens ~name:"client" () in
      for i = 1 to 10 do
        ignore
          (ok_create "pre-crash create"
             (Client.create c ~key:(Printf.sprintf "/durable/k%d" i) ~value:"v" ()))
      done;
      let old_leader = Ensemble.await_leader ens in
      Ensemble.crash_replica ens old_leader;
      (* Ops continue against the new leader (the client re-discovers it). *)
      for i = 11 to 15 do
        ignore
          (ok_create "post-crash create"
             (Client.create c ~key:(Printf.sprintf "/durable/k%d" i) ~value:"v" ()))
      done;
      let new_leader = Ensemble.await_leader ens in
      check bool_c "leader changed" true (new_leader <> old_leader);
      check int_c "all 15 keys durable" 15
        (List.length (Client.get_children c "/durable"));
      Client.close c)

let test_crashed_replica_rejoins () =
  Drive.ensemble (fun _sim ens ->
      let c = Ensemble.connect ens ~name:"client" () in
      ignore (ok_create "w1" (Client.create c ~key:"/log/a" ~value:"1" ()));
      let victim =
        (* Crash a follower. *)
        let leader = Ensemble.await_leader ens in
        (leader + 1) mod 3
      in
      Ensemble.crash_replica ens victim;
      for i = 1 to 5 do
        ignore
          (ok_create "while-down"
             (Client.create c ~key:(Printf.sprintf "/log/b%d" i) ~value:"v" ()))
      done;
      Ensemble.restart_replica ens victim;
      Des.Proc.sleep 3.;
      let store = Replica.store (Ensemble.replica ens victim) in
      check int_c "rejoined replica caught up" 6
        (List.length (Store.children store "/log"));
      Client.close c)

let test_majority_loss_blocks_then_recovers () =
  Drive.ensemble (fun _sim ens ->
      let c = Ensemble.connect ens ~name:"client" () in
      ignore (ok_create "before" (Client.create c ~key:"/x/a" ~value:"1" ()));
      let leader = Ensemble.await_leader ens in
      let f1 = (leader + 1) mod 3 and f2 = (leader + 2) mod 3 in
      Ensemble.crash_replica ens f1;
      Ensemble.crash_replica ens f2;
      (* Without a quorum nothing commits: run a write attempt with its own
         watchdog. *)
      let attempted = ref false in
      ignore
        (Des.Proc.spawn ~name:"blocked-writer" (Ensemble.sim ens) (fun () ->
             ignore (Client.create c ~key:"/x/blocked" ~value:"2" ());
             attempted := true));
      Des.Proc.sleep 10.;
      check bool_c "write blocked without quorum" false !attempted;
      Ensemble.restart_replica ens f1;
      Des.Proc.sleep 20.;
      check bool_c "write completed after quorum back" true !attempted;
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Recipes *)

let test_queue_fifo () =
  Drive.ensemble (fun _sim ens ->
      let c = Ensemble.connect ens ~name:"queue" () in
      let keys =
        List.map (fun v -> Recipes.enqueue c ~queue:"/q/test" v) [ "a"; "b"; "c" ]
      in
      (* Consumers read the queue head-first and take an item by deleting
         it, as the controller and workers do with inputQ and phyQ. *)
      let items = Client.children_values c "/q/test" 3 in
      check (Alcotest.list string_c) "keys in enqueue order" keys
        (List.map fst items);
      check (Alcotest.list string_c) "fifo" [ "a"; "b"; "c" ]
        (List.map snd items);
      check (Alcotest.list string_c) "first n only" [ "a" ]
        (List.map snd (Client.children_values c "/q/test" 1));
      List.iter (fun (key, _) -> ok_create "take" (Client.delete c ~key ())) items;
      check int_c "empty" 0 (List.length (Client.children_values c "/q/test" 3));
      Client.close c)

let test_election_recipe () =
  Drive.ensemble (fun _sim ens ->
      let a = Ensemble.connect ens ~session_timeout:3. ~name:"ctrl-a" () in
      let b = Ensemble.connect ens ~session_timeout:3. ~name:"ctrl-b" () in
      let ma = Recipes.join_election a ~election:"/elect" ~payload:"A" in
      let mb = Recipes.join_election b ~election:"/elect" ~payload:"B" in
      (* The first member leads at once. *)
      let t0 = Des.Proc.now () in
      Recipes.await_leadership a ~election:"/elect" ~member:ma;
      check bool_c "a leads without waiting" true (Des.Proc.now () -. t0 < 0.5);
      check bool_c "members sort in join order" true (ma < mb);
      (* A dies; B should take over once the session expires. *)
      let t0 = Des.Proc.now () in
      Client.close a;
      Recipes.await_leadership b ~election:"/elect" ~member:mb;
      let elapsed = Des.Proc.now () -. t0 in
      check bool_c "took over after session expiry" true (elapsed >= 2.5);
      check bool_c "took over promptly" true (elapsed < 10.);
      Client.close b)


(* ------------------------------------------------------------------ *)
(* Model-based property: Store vs a naive map model (no sessions). *)

type store_op =
  | S_create of string * string * bool (* key, value, sequential *)
  | S_write of string * string * int option
  | S_delete of string * int option

let store_op_gen =
  let open QCheck.Gen in
  let key_gen = oneofl [ "/q/a"; "/q/b"; "/r/c"; "/r/d"; "/q/item-" ] in
  let value_gen = oneofl [ "x"; "y"; "z" ] in
  let version_gen = oneof [ return None; map (fun v -> Some v) (int_range 1 3) ] in
  frequency
    [
      3, map3 (fun k v s -> S_create (k, v, s)) key_gen value_gen bool;
      3, map3 (fun k v ver -> S_write (k, v, ver)) key_gen value_gen version_gen;
      2, map2 (fun k ver -> S_delete (k, ver)) key_gen version_gen;
    ]

let store_ops_arbitrary =
  QCheck.make
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | S_create (k, v, s) ->
               Printf.sprintf "create %s=%s seq=%b" k v s
             | S_write (k, v, ver) ->
               Printf.sprintf "write %s=%s v=%s" k v
                 (match ver with Some n -> string_of_int n | None -> "-")
             | S_delete (k, ver) ->
               Printf.sprintf "delete %s v=%s" k
                 (match ver with Some n -> string_of_int n | None -> "-"))
           ops))
    QCheck.Gen.(list_size (int_bound 40) store_op_gen)

let store_model_prop =
  QCheck.Test.make ~name:"store agrees with reference map" ~count:300
    store_ops_arbitrary (fun ops ->
      let store = Store.create () in
      let req = ref 0 in
      (* model: key -> (value, version) *)
      let model = Hashtbl.create 16 in
      let seq = ref 0 in
      List.for_all
        (fun op ->
          incr req;
          match op with
          | S_create (key, value, sequential) ->
            let result, _ =
              Store.apply store
                (Types.Create
                   { session = 1; req = !req; key; value;
                     ephemeral = false; sequential })
            in
            (match result with
             | Types.Created final ->
               let expected =
                 if sequential then begin
                   incr seq;
                   (* The suffix must make the key fresh and ordered. *)
                   not (Hashtbl.mem model final)
                   && String.length final > String.length key
                 end
                 else not (Hashtbl.mem model key)
               in
               Hashtbl.replace model final (value, 1);
               expected
             | Types.Op_failed Types.Key_exists ->
               (not sequential) && Hashtbl.mem model key
             | _ -> false)
          | S_write (key, value, expect_version) ->
            let result, _ =
              Store.apply store
                (Types.Write { session = 1; req = !req; key; value; expect_version })
            in
            (match result, Hashtbl.find_opt model key, expect_version with
             | Types.Written v, Some (_, mv), None ->
               Hashtbl.replace model key (value, mv + 1);
               v = mv + 1
             | Types.Written 1, None, None ->
               Hashtbl.replace model key (value, 1);
               true
             | Types.Written v, Some (_, mv), Some expected ->
               if mv = expected then begin
                 Hashtbl.replace model key (value, mv + 1);
                 v = mv + 1
               end
               else false
             | Types.Op_failed Types.Bad_version, Some (_, mv), Some expected ->
               mv <> expected
             | Types.Op_failed Types.Key_missing, None, Some _ -> true
             | _, _, _ -> false)
          | S_delete (key, expect_version) ->
            let result, _ =
              Store.apply store
                (Types.Delete { session = 1; req = !req; key; expect_version })
            in
            (match result, Hashtbl.find_opt model key, expect_version with
             | Types.Deleted_ok, Some (_, mv), Some expected ->
               if mv = expected then begin
                 Hashtbl.remove model key;
                 true
               end
               else false
             | Types.Deleted_ok, Some _, None ->
               Hashtbl.remove model key;
               true
             | Types.Op_failed Types.Bad_version, Some (_, mv), Some expected ->
               mv <> expected
             | Types.Op_failed Types.Key_missing, None, _ -> true
             | _, _, _ -> false))
        ops
      && Store.size store = Hashtbl.length model)

(* ------------------------------------------------------------------ *)
(* Chaos property: random single-replica crashes and restarts never lose
   an acknowledged write (a quorum stays up throughout). *)

let test_chaos_single_crashes () =
  List.iter
    (fun seed ->
      Drive.ensemble ~seed (fun sim ens ->
          let client = Ensemble.connect ens ~name:"chaos-writer" () in
          let acked = ref [] in
          let writer =
            Des.Proc.spawn ~name:"writer" sim (fun () ->
                for i = 1 to 40 do
                  match
                    Client.create client
                      ~key:(Printf.sprintf "/chaos/k%03d" i)
                      ~value:(string_of_int i) ()
                  with
                  | Ok key ->
                    acked := key :: !acked;
                    Des.Proc.sleep 0.3
                  | Error _ -> Des.Proc.sleep 0.3
                done)
          in
          ignore
            (Des.Proc.spawn ~name:"chaos" sim (fun () ->
                 let rng = Random.State.make [| seed * 7 |] in
                 for _ = 1 to 4 do
                   Des.Proc.sleep (1. +. Random.State.float rng 2.);
                   let victim = Random.State.int rng 3 in
                   Ensemble.crash_replica ens victim;
                   Des.Proc.sleep (1. +. Random.State.float rng 2.);
                   Ensemble.restart_replica ens victim
                 done));
          (match Des.Proc.await writer with
           | Ok () -> ()
           | Error e -> raise e);
          (* Let the cluster settle, then every acked key must be there. *)
          Des.Proc.sleep 5.;
          List.iter
            (fun key ->
              match Client.get client key with
              | Some _ -> ()
              | None -> Alcotest.failf "acked key %s lost (seed %d)" key seed)
            !acked;
          check bool_c "most writes acked" true (List.length !acked >= 35);
          Client.close client))
    [ 101; 202; 303 ]


(* Property: a multi is all or none across leader crashes.  A writer
   submits multis of three keys, some ending in a precondition that fails;
   a nemesis crashes the current leader and restarts it.  Afterwards every
   multi has all of its keys or none, an acked success has all, an acked
   failure none, and no sequential create applied twice. *)
let multi_crash_prop =
  QCheck.Test.make ~name:"multi is all-or-none across leader crashes"
    ~count:60
    QCheck.(pair (int_range 1 10_000) (list_of_size Gen.(int_range 10 30) bool))
    (fun (seed, failing) ->
      let ok = ref true in
      Drive.ensemble ~seed (fun sim ens ->
          let client = Ensemble.connect ens ~name:"multi-writer" () in
          let outcomes = Hashtbl.create 16 in
          let keys i = List.map (Printf.sprintf "/m/%03d/%s" i) [ "a"; "b" ] in
          let inflight = ref false in
          let writer =
            Des.Proc.spawn ~name:"writer" sim (fun () ->
                List.iteri
                  (fun i fail ->
                    let ops =
                      List.map
                        (fun key ->
                          Types.Op_write { key; value = "v"; expect_version = None })
                        (keys i)
                      @ [ Types.Op_create
                            { key = Printf.sprintf "/m/%03d/seq-" i; value = "s";
                              ephemeral = false; sequential = true } ]
                      @
                      if fail then
                        [ Types.Op_delete { key = "/absent"; expect_version = Some 1 } ]
                      else []
                    in
                    inflight := true;
                    Hashtbl.replace outcomes i (Client.multi client ops);
                    inflight := false;
                    Des.Proc.sleep 0.05)
                  failing)
          in
          ignore
            (Des.Proc.spawn ~name:"nemesis" sim (fun () ->
                 (* Aim at the window that matters: a multi in flight, maybe
                    replicated, maybe committed but not yet answered. *)
                 let rng = Random.State.make [| seed |] in
                 for _ = 1 to 4 do
                   Des.Proc.sleep (0.2 +. Random.State.float rng 0.3);
                   while not !inflight do Des.Proc.sleep 0.0005 done;
                   Des.Proc.sleep (Random.State.float rng 0.005);
                   match Ensemble.leader_id ens with
                   | Some victim ->
                     Ensemble.crash_replica ens victim;
                     Des.Proc.sleep (0.5 +. Random.State.float rng 1.);
                     Ensemble.restart_replica ens victim
                   | None -> ()
                 done));
          (match Des.Proc.await writer with Ok () -> () | Error e -> raise e);
          Des.Proc.sleep 5.;
          List.iteri
            (fun i fail ->
              let present =
                List.map (fun k -> Client.get client k <> None) (keys i)
              in
              let seqs =
                List.length (Client.get_children client (Printf.sprintf "/m/%03d" i))
                - List.length (List.filter Fun.id present)
              in
              let all = List.for_all Fun.id present
              and none = not (List.exists Fun.id present) in
              let consistent =
                match Hashtbl.find_opt outcomes i with
                | Some (Ok _) -> all && seqs = 1 && not fail
                | Some (Error _) -> none && seqs = 0 && fail
                | None -> (all && seqs = 1) || (none && seqs = 0)
              in
              if not consistent then ok := false)
            failing;
          Client.close client);
      !ok)

(* ------------------------------------------------------------------ *)
(* Ordered admission: a session's pipelined commands reach the log in
   send order *)

(* The values a session's multis write, in the order the committed log
   first applies them (a retry's later duplicate is deduped, not applied). *)
let applied_values leader ~session =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun i ->
      match Replica.entry leader i with
      | Some (Types.Multi { session = s; req; ops = [ Types.Op_write { value; _ } ] })
        when s = session && not (Hashtbl.mem seen req) ->
        Hashtbl.replace seen req ();
        Some (int_of_string value)
      | Some _ | None -> None)
    (List.init (Replica.last_log_index leader) (fun i -> i + 1))

(* [n] multi_async writes of their own index to one key, all queued at once
   on one session under the default [Des.Net] latency (which reorders
   messages); with [kill_after], the coordination leader is crashed once
   that many are answered.  Checks each is answered exactly once, the log
   applies them in index order, no replica counted a session-order gap,
   and the key ends at the last index. *)
let check_pipelined_stream ?kill_after n =
  Drive.ensemble (fun _sim ens ->
      let first_leader = Ensemble.await_leader ens in
      let c = Ensemble.connect ens ~name:"pipeline" () in
      let answers = Array.make n 0 in
      for i = 0 to n - 1 do
        Client.multi_async c
          [ Types.Op_write
              { key = "/pipe"; value = string_of_int i; expect_version = None } ]
          ~on_done:(fun _ -> answers.(i) <- answers.(i) + 1)
      done;
      let answered () = Array.fold_left (fun k a -> k + min a 1) 0 answers in
      Option.iter
        (fun k ->
          while answered () < k do Des.Proc.sleep 0.0005 done;
          check bool_c "killed mid-stream" true (answered () < n);
          Ensemble.crash_replica ens first_leader)
        kill_after;
      let rec settle tries =
        if answered () < n && tries > 0 then begin
          Des.Proc.sleep 0.1;
          settle (tries - 1)
        end
      in
      settle 200;
      check (Alcotest.array int_c) "each answered exactly once"
        (Array.make n 1) answers;
      let leader = Ensemble.await_leader ens in
      if kill_after <> None then
        check bool_c "a new leader took over" true (leader <> first_leader);
      check (Alcotest.list int_c) "applied in send order" (List.init n Fun.id)
        (applied_values (Ensemble.replica ens leader)
           ~session:(Client.session_id c));
      List.iter
        (fun i ->
          if Ensemble.replica_up ens i then
            check int_c
              (Printf.sprintf "replica %d counts no session-order gap" i)
              0 (Store.order_gaps (Replica.store (Ensemble.replica ens i))))
        (Ensemble.replica_ids ens);
      check (Alcotest.option string_c) "last write wins"
        (Some (string_of_int (n - 1)))
        (Option.map fst (Client.get c "/pipe"));
      Client.close c)

let test_pipelined_stream_in_order () = check_pipelined_stream 50

let test_pipelined_stream_leader_killed () =
  check_pipelined_stream ~kill_after:20 50

(* Receipts name one leader's log only.  Ten writes are admitted by a
   leader cut off from its followers, so they never commit; a new leader
   takes over, and the old one steps down once the partition heals and
   drops them.  A query on the same session then finds the new leader
   before any write times out (the request timeout is long) or a ping
   does; the write
   queued after it must not overtake the ten, which have to be resent to
   the new leader first. *)
let test_pipelined_follows_query_hint () =
  let config = { Types.default_config with Types.request_timeout = 10. } in
  Drive.ensemble ~config (fun _sim ens ->
      (* pings far apart: the query below is the first to meet the new
         leader *)
      let c = Ensemble.connect ens ~session_timeout:60. ~name:"pipeline" () in
      ignore (ok_create "warm" (Client.create c ~key:"/pipe" ~value:"-1" ()));
      let old_leader = Ensemble.await_leader ens in
      Des.Net.partition (Ensemble.net ens) [ old_leader ]
        (List.filter (( <> ) old_leader) (Ensemble.replica_ids ens));
      let n = 11 in
      let answers = Array.make n 0 in
      let write i =
        Client.multi_async c
          [ Types.Op_write
              { key = "/pipe"; value = string_of_int i; expect_version = None } ]
          ~on_done:(fun _ -> answers.(i) <- answers.(i) + 1)
      in
      for i = 0 to n - 2 do write i done;
      Des.Proc.sleep 2.;
      Des.Net.heal (Ensemble.net ens);
      Des.Proc.sleep 0.5;
      check bool_c "old leader stepped down" false
        (Replica.is_leader (Ensemble.replica ens old_leader));
      check int_c "the cut-off writes are unanswered" 0
        (Array.fold_left ( + ) 0 answers);
      ignore (Client.get c "/pipe");
      write (n - 1);
      Des.Proc.sleep 1.;
      check (Alcotest.array int_c) "each answered exactly once"
        (Array.make n 1) answers;
      let leader = Ensemble.await_leader ens in
      check bool_c "a new leader took over" true (leader <> old_leader);
      check (Alcotest.list int_c) "applied in send order" (List.init n Fun.id)
        (List.filter (( <= ) 0)
           (applied_values (Ensemble.replica ens leader)
              ~session:(Client.session_id c)));
      check int_c "no session-order gap" 0
        (Store.order_gaps (Replica.store (Ensemble.replica ens leader)));
      check (Alcotest.option string_c) "last write wins"
        (Some (string_of_int (n - 1)))
        (Option.map fst (Client.get c "/pipe"));
      Client.close c)

(* A controller's write path releases one window a millisecond or so
   apart; the coordination leader is killed at a random moment, and the
   controller's session closes (a controller crash) at another.  Whatever
   ended up durable must be a prefix of the released windows. *)
let persist_leader_kill_prop =
  QCheck.Test.make ~name:"persist windows: durable prefix across leader kill"
    ~count:20
    QCheck.(triple (int_range 1 1000) (float_range 0. 0.03) (float_range 0. 1.5))
    (fun (seed, kill_at, stop_after) ->
      let windows = 30 and ns = Tropic.Proto.default_ns in
      let durable = ref [] in
      Drive.ensemble ~seed (fun sim ens ->
          let leader = Ensemble.await_leader ens in
          let client = Ensemble.connect ens ~name:"ctl" () in
          let p = Tropic.Persist.create ~name:"ctl" ~ns ~client in
          let t0 = Des.Sim.now sim in
          ignore
            (Des.Proc.spawn ~name:"nemesis" sim (fun () ->
                 Des.Proc.sleep kill_at;
                 Ensemble.crash_replica ens leader;
                 Des.Proc.sleep stop_after;
                 Client.close client));
          let rng = Random.State.make [| seed |] in
          for id = 0 to windows - 1 do
            if not (Client.closed client) then begin
              Tropic.Persist.defer p;
              let txn = Tropic.Txn.make ~id ~proc:"p" ~args:[] ~submitted_at:0. in
              txn.Tropic.Txn.state <- Tropic.Txn.Accepted;
              Tropic.Persist.write p txn;
              Tropic.Persist.offer p id;
              Tropic.Persist.release p;
              Des.Proc.sleep (0.0005 +. Random.State.float rng 0.0015)
            end
          done;
          Des.Proc.sleep (Float.max 0. (t0 +. kill_at +. stop_after -. Des.Sim.now sim));
          Des.Proc.sleep 3.;
          let reader = Ensemble.connect ens ~name:"reader" () in
          durable :=
            List.filter
              (fun id ->
                Client.get reader (Tropic.Txn.record_key_ns ns id) <> None)
              (List.init windows Fun.id);
          Client.close reader);
      !durable = List.init (List.length !durable) Fun.id)

(* ------------------------------------------------------------------ *)
(* Partitions: divergent logs must converge, acked writes must survive *)

let test_partitioned_leader_steps_down () =
  Drive.ensemble (fun _sim ens ->
      let c = Ensemble.connect ens ~name:"part-writer" () in
      ignore (ok_create "before" (Client.create c ~key:"/p/before" ~value:"1" ()));
      let old_leader = Ensemble.await_leader ens in
      let others = List.filter (fun i -> i <> old_leader) [ 0; 1; 2 ] in
      (* Cut the leader off.  The majority side elects a new leader; the
         old one cannot commit anything. *)
      Des.Net.partition (Ensemble.net ens) [ old_leader ] others;
      Des.Proc.sleep 3.;
      let minority = Ensemble.replica ens old_leader in
      let new_leader =
        List.find
          (fun i -> Replica.is_leader (Ensemble.replica ens i))
          others
      in
      check bool_c "majority elected a new leader" true
        (new_leader <> old_leader);
      check bool_c "new term is higher" true
        (Replica.term (Ensemble.replica ens new_leader) > 0);
      (* Writes continue on the majority side. *)
      ignore (ok_create "during" (Client.create c ~key:"/p/during" ~value:"2" ()));
      (* Heal: the deposed leader must step down and adopt the new log. *)
      Des.Net.heal (Ensemble.net ens);
      Des.Proc.sleep 3.;
      check bool_c "old leader stepped down" false (Replica.is_leader minority);
      check bool_c "old leader caught up" true
        (Coord.Store.exists (Replica.store minority) "/p/during");
      ignore (ok_create "after" (Client.create c ~key:"/p/after" ~value:"3" ()));
      List.iter
        (fun key ->
          check bool_c (key ^ " present") true
            (Option.is_some (Client.get c key)))
        [ "/p/before"; "/p/during"; "/p/after" ];
      Client.close c)

let test_divergent_log_truncated () =
  Drive.ensemble (fun sim ens ->
      let c = Ensemble.connect ens ~name:"div-writer" () in
      ignore (ok_create "w0" (Client.create c ~key:"/d/base" ~value:"0" ()));
      let old_leader = Ensemble.await_leader ens in
      let others = List.filter (fun i -> i <> old_leader) [ 0; 1; 2 ] in
      Des.Net.partition (Ensemble.net ens) [ old_leader ] others;
      (* A writer talking only to the minority leader: its submissions can
         be appended to the stale leader's log but never commit. *)
      let doomed = Ensemble.connect ens ~name:"doomed" () in
      let doomed_acked = ref false in
      ignore
        (Des.Proc.spawn ~name:"doomed-writer" sim (fun () ->
             (* Force the doomed client onto the minority. *)
             Des.Net.partition (Ensemble.net ens)
               [ Coord.Client.session_id doomed ]
               others;
             match Client.create doomed ~key:"/d/ghost" ~value:"x" () with
             | Ok _ -> doomed_acked := true
             | Error _ -> ()));
      Des.Proc.sleep 4.;
      (* The client gives up before the partition heals: its command sits
         uncommitted in the stale leader's log.  (If it kept retrying, the
         retry machinery would legitimately deliver it after the heal.) *)
      Client.close doomed;
      check bool_c "ghost never acked" false !doomed_acked;
      (* Meanwhile the majority commits real writes. *)
      for i = 1 to 5 do
        ignore
          (ok_create "majority write"
             (Client.create c ~key:(Printf.sprintf "/d/real%d" i) ~value:"y" ()))
      done;
      Des.Net.heal (Ensemble.net ens);
      Des.Proc.sleep 5.;
      (* The unacked write must not exist anywhere after the stale
         leader's divergent suffix is truncated. *)
      List.iter
        (fun i ->
          check bool_c
            (Printf.sprintf "replica %d has no ghost" i)
            false
            (Coord.Store.exists (Replica.store (Ensemble.replica ens i)) "/d/ghost"))
        [ 0; 1; 2 ];
      List.iter
        (fun i ->
          check int_c
            (Printf.sprintf "replica %d converged" i)
            6
            (List.length (Coord.Store.children (Replica.store (Ensemble.replica ens i)) "/d")))
        [ 0; 1; 2 ];
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Log compaction and snapshot installation *)

let compaction_config =
  { Types.default_config with Types.snapshot_threshold = 25 }

let with_compacting_ensemble scenario =
  Drive.ensemble ~seed:9 ~config:compaction_config (fun _ ens -> scenario ens)

let write_n ?(from = 1) client n =
  for i = from to from + n - 1 do
    ignore
      (ok_create "write"
         (Client.create client ~key:(Printf.sprintf "/cp/k%04d" i) ~value:"v" ()))
  done

let test_compaction_bounds_log () =
  with_compacting_ensemble (fun ens ->
      let c = Ensemble.connect ens ~name:"compact-writer" () in
      write_n c 120;
      Des.Proc.sleep 2.;
      List.iter
        (fun i ->
          let r = Ensemble.replica ens i in
          check bool_c
            (Printf.sprintf "replica %d log bounded" i)
            true
            (Replica.log_length r <= 60);
          check bool_c (Printf.sprintf "replica %d snapshotted" i) true
            (Replica.has_snapshot r);
          check bool_c (Printf.sprintf "replica %d base advanced" i) true
            (Replica.log_base r > 0);
          check int_c
            (Printf.sprintf "replica %d has all keys" i)
            120
            (List.length (Store.children (Replica.store r) "/cp")))
        [ 0; 1; 2 ];
      Client.close c)

let test_snapshot_install_catches_up_follower () =
  with_compacting_ensemble (fun ens ->
      let c = Ensemble.connect ens ~name:"writer" () in
      write_n c 10;
      let leader = Ensemble.await_leader ens in
      let victim = (leader + 1) mod 3 in
      Ensemble.crash_replica ens victim;
      (* Enough writes that the victim's gap is compacted away on the
         survivors: catching up requires a snapshot transfer. *)
      write_n ~from:11 c 100;
      Des.Proc.sleep 1.;
      check bool_c "gap compacted on leader" true
        (Replica.log_base (Ensemble.replica ens leader) > 10);
      Ensemble.restart_replica ens victim;
      Des.Proc.sleep 5.;
      let r = Ensemble.replica ens victim in
      check int_c "victim caught up via snapshot" 110
        (List.length (Store.children (Replica.store r) "/cp"));
      check bool_c "victim adopted a snapshot" true (Replica.has_snapshot r);
      (* And the cluster keeps serving. *)
      write_n ~from:111 c 5;
      check int_c "post-recovery writes" 115
        (List.length (Client.get_children c "/cp"));
      Client.close c)

let test_restart_from_snapshot () =
  with_compacting_ensemble (fun ens ->
      let c = Ensemble.connect ens ~name:"writer" () in
      write_n c 80;
      Des.Proc.sleep 1.;
      (* Restart a follower in place: it must rebuild from its own snapshot
         plus the retained log tail, not from index zero. *)
      let leader = Ensemble.await_leader ens in
      let victim = (leader + 2) mod 3 in
      check bool_c "victim snapshotted before crash" true
        (Replica.has_snapshot (Ensemble.replica ens victim));
      Ensemble.crash_replica ens victim;
      Ensemble.restart_replica ens victim;
      Des.Proc.sleep 3.;
      check int_c "state rebuilt" 80
        (List.length
           (Store.children (Replica.store (Ensemble.replica ens victim)) "/cp"));
      Client.close c)

(* The openraft rejoin-bug family: a lagging follower whose gap was
   compacted away must rejoin via snapshot install — including when it
   crashes again mid-install and comes back to an even bigger gap. *)
let test_rejoin_after_compaction_repeated_crashes () =
  with_compacting_ensemble (fun ens ->
      let c = Ensemble.connect ens ~name:"writer" () in
      write_n c 10;
      let leader = Ensemble.await_leader ens in
      let victim = (leader + 1) mod 3 in
      Ensemble.crash_replica ens victim;
      (* Push the survivors far past the victim's log so its entire gap
         lives only in snapshots. *)
      write_n ~from:11 c 60;
      Des.Proc.sleep 1.;
      check bool_c "gap compacted away on leader" true
        (Replica.log_base (Ensemble.replica ens leader) > 10);
      (* First rejoin attempt dies almost immediately — before the
         snapshot install completes. *)
      Ensemble.restart_replica ens victim;
      Des.Proc.sleep 0.05;
      Ensemble.crash_replica ens victim;
      (* The cluster keeps committing while the victim is down again, so
         the second rejoin faces a fresh gap and a newer snapshot. *)
      write_n ~from:71 c 60;
      Des.Proc.sleep 1.;
      Ensemble.restart_replica ens victim;
      Des.Proc.sleep 5.;
      let r = Ensemble.replica ens victim in
      check int_c "victim converged after repeated crashes" 130
        (List.length (Store.children (Replica.store r) "/cp"));
      check bool_c "victim adopted a snapshot" true (Replica.has_snapshot r);
      check bool_c "victim's log base advanced" true (Replica.log_base r > 10);
      (* The rejoined follower really participates: with the other
         follower down, it is needed for quorum. *)
      let leader2 = Ensemble.await_leader ens in
      let other =
        List.find (fun i -> i <> leader2 && i <> victim) [ 0; 1; 2 ]
      in
      Ensemble.crash_replica ens other;
      write_n ~from:131 c 5;
      check int_c "quorum held by the rejoined follower" 135
        (List.length (Client.get_children c "/cp"));
      Ensemble.restart_replica ens other;
      Des.Proc.sleep 2.;
      Client.close c)

let store_snapshot_roundtrip_prop =
  QCheck.Test.make ~name:"store snapshot codec roundtrip" ~count:100
    store_ops_arbitrary (fun ops ->
      let store = Store.create () in
      let req = ref 0 in
      List.iter
        (fun op ->
          incr req;
          ignore
            (match op with
             | S_create (key, value, sequential) ->
               Store.apply store
                 (Types.Create
                    { session = 1; req = !req; key; value;
                      ephemeral = false; sequential })
             | S_write (key, value, expect_version) ->
               Store.apply store
                 (Types.Write { session = 1; req = !req; key; value; expect_version })
             | S_delete (key, expect_version) ->
               Store.apply store
                 (Types.Delete { session = 1; req = !req; key; expect_version })))
        ops;
      match Result.bind (Data.Sexp.of_string (Data.Sexp.to_string (Store.to_sexp store))) Store.of_sexp with
      | Error _ -> false
      | Ok restored ->
        Store.size restored = Store.size store
        (* Replays after the snapshot behave identically: dedup survives. *)
        && Store.apply restored
             (Types.Create
                { session = 1; req = !req; key = "/any"; value = "v";
                  ephemeral = false; sequential = false })
           = Store.apply store
               (Types.Create
                  { session = 1; req = !req; key = "/any"; value = "v";
                    ephemeral = false; sequential = false }))

let suite =
  [
    ("store: create/get", `Quick, test_store_create_get);
    ("store: sequential keys", `Quick, test_store_sequential);
    ("store: versions and CAS", `Quick, test_store_versions);
    ("store: upsert", `Quick, test_store_upsert);
    ("store: direct children only", `Quick, test_store_children_direct_only);
    ("store: first n children with values", `Quick, test_store_children_values);
    ("store: ephemeral expiry", `Quick, test_store_ephemeral_expiry);
    ("store: request dedup", `Quick, test_store_dedup);
    ("store: parent", `Quick, test_store_parent);
    ("store: multi is all or none", `Quick, test_store_multi_all_or_none);
    ("store: multi retry answers the cached result", `Quick, test_store_multi_dedup);
    ("store: multi result survives a snapshot", `Quick, test_store_multi_snapshot);
    ("ensemble: single leader elected", `Quick, test_single_leader_elected);
    ("client: kv roundtrip", `Quick, test_client_kv_roundtrip);
    ("ensemble: replicas converge", `Quick, test_replicas_converge);
    ("watch: key", `Quick, test_watch_key_fires);
    ("watch: children", `Quick, test_watch_children_fires);
    ("client: children with values in one query", `Quick, test_client_children_values);
    ("session: ephemeral expires on close", `Quick, test_ephemeral_expires_on_close);
    ("session: ids in connect order, no budget", `Quick, test_sessions_without_budget);
    ("failover: no committed writes lost", `Quick, test_leader_crash_no_committed_loss);
    ("failover: crashed replica rejoins", `Quick, test_crashed_replica_rejoins);
    ("failover: majority loss blocks, recovers", `Quick, test_majority_loss_blocks_then_recovers);
    ("recipe: queue fifo", `Quick, test_queue_fifo);
    ("recipe: leader election", `Quick, test_election_recipe);
    QCheck_alcotest.to_alcotest store_model_prop;
    ("chaos: crashes lose no acked writes", `Slow, test_chaos_single_crashes);
    QCheck_alcotest.to_alcotest multi_crash_prop;
    ("pipeline: a stream applies in send order", `Quick, test_pipelined_stream_in_order);
    ( "pipeline: leader killed mid-stream",
      `Quick,
      test_pipelined_stream_leader_killed );
    ( "pipeline: a query's leader hint takes the stream along",
      `Quick,
      test_pipelined_follows_query_hint );
    QCheck_alcotest.to_alcotest persist_leader_kill_prop;
    ("partition: minority leader steps down", `Quick, test_partitioned_leader_steps_down);
    ("partition: divergent log truncated", `Quick, test_divergent_log_truncated);
    ("compaction: log stays bounded", `Quick, test_compaction_bounds_log);
    ("compaction: snapshot install catch-up", `Quick, test_snapshot_install_catches_up_follower);
    ("compaction: restart from snapshot", `Quick, test_restart_from_snapshot);
    ( "compaction: rejoin after repeated crashes mid-install",
      `Quick,
      test_rejoin_after_compaction_repeated_crashes );
    QCheck_alcotest.to_alcotest store_snapshot_roundtrip_prop;
  ]

let () = Alcotest.run "coord" [ ("coord", suite) ]
