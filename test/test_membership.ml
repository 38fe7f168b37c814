(* Tests for dynamic coordination membership: add/remove through the
   replicated configuration, learner catch-up, quorum arithmetic over the
   effective member set, the session-timeout clamp, and the
   rejoin-within-one-term window that replication session ids close. *)

open Coord

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int

let ok_create what = function
  | Ok key -> key
  | Error e ->
    Alcotest.failf "%s: %s" what (Format.asprintf "%a" Types.pp_op_error e)

(* Poll [cond] every 0.1 simulated seconds for up to [for_] seconds. *)
let eventually ?(for_ = 30.) what cond =
  let deadline = Des.Proc.now () +. for_ in
  let rec wait () =
    if cond () then ()
    else if Des.Proc.now () >= deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Des.Proc.sleep 0.1;
      wait ()
    end
  in
  wait ()

(* ------------------------------------------------------------------ *)
(* Add / remove through the ensemble *)

let test_add_remove_replica () =
  Drive.ensemble (fun _sim ens ->
      ignore (Ensemble.await_leader ens);
      let c = Ensemble.connect ens ~name:"cli" () in
      ignore (ok_create "create" (Client.create c ~key:"/m/a" ~value:"1" ()));
      let id = Ensemble.add_replica ens () in
      check bool_c "new id outside the boot range" true (id >= 3);
      let members = Ensemble.members ens in
      check int_c "four members" 4 (List.length members);
      check bool_c "new id is a member" true (List.mem id members);
      (* The add blocked on catch-up, so the new replica already holds the
         data written before it existed. *)
      let store = Replica.store (Ensemble.replica ens id) in
      eventually "learner applied pre-join writes" (fun () ->
          match Store.get store "/m/a" with Some ("1", _) -> true | _ -> false);
      Ensemble.remove_replica ens 2;
      let members = Ensemble.members ens in
      check bool_c "removed id gone" true (not (List.mem 2 members));
      check int_c "three members again" 3 (List.length members);
      (* Writes still commit under the new configuration's quorum. *)
      ignore (ok_create "create after churn"
                (Client.create c ~key:"/m/b" ~value:"2" ()));
      let st = Ensemble.membership_stats ens in
      check bool_c "join counted" true (st.Types.joins >= 1);
      check bool_c "leave counted" true (st.Types.leaves >= 1);
      check bool_c "catch-up counted" true (st.Types.catchups >= 1))

(* The config state machine travels with snapshots: a replica added after
   compaction learns the membership from the snapshot, not the log. *)
let test_add_survives_leader_crash_of_old_member () =
  Drive.ensemble (fun _sim ens ->
      let leader = Ensemble.await_leader ens in
      let c = Ensemble.connect ens ~name:"cli" () in
      ignore (ok_create "seed write" (Client.create c ~key:"/k" ~value:"v" ()));
      let id = Ensemble.add_replica ens () in
      (* Four members now; crash the old leader — the three survivors
         (including the newcomer) must elect and keep serving. *)
      Ensemble.crash_replica ens leader;
      eventually ~for_:60. "post-crash leader among the new membership"
        (fun () ->
          match Ensemble.leader_id ens with
          | Some l -> l <> leader
          | None -> false);
      ignore (ok_create "write after fail-over"
                (Client.create c ~key:"/k2" ~value:"w" ()));
      check bool_c "newcomer still a member" true
        (List.mem id (Ensemble.members ens)))

(* ------------------------------------------------------------------ *)
(* Client leader retry follows the current membership *)

let test_client_follows_membership () =
  Drive.ensemble (fun _sim ens ->
      ignore (Ensemble.await_leader ens);
      let c = Ensemble.connect ens ~name:"cli" () in
      ignore (ok_create "before" (Client.create c ~key:"/f/a" ~value:"x" ()));
      (* Swap replica 1 for a spare-slot newcomer (a decommissioned server
         is crashed after removal, or its stale Not_leader hints would keep
         pointing clients at the old configuration), then crash the leader:
         the client's boot-time view [0;1;2] now names one live node at
         most, and only the membership refreshed from that node's
         Not_leader reply can reach a leader living outside the boot id
         range. *)
      let n1 = Ensemble.add_replica ens () in
      Ensemble.remove_replica ens 1;
      Ensemble.crash_replica ens 1;
      ignore (ok_create "mid" (Client.create c ~key:"/f/b" ~value:"y" ()));
      let leader =
        match Ensemble.leader_id ens with
        | Some l -> l
        | None -> Alcotest.fail "no leader after the swap"
      in
      Ensemble.crash_replica ens leader;
      eventually ~for_:60. "fail-over among the remaining members" (fun () ->
          match Ensemble.leader_id ens with
          | Some l -> l <> leader
          | None -> false);
      ignore (ok_create "after" (Client.create c ~key:"/f/c" ~value:"z" ()));
      check bool_c "newcomer can lead" true
        (List.mem n1 (Ensemble.members ens));
      check bool_c "all three writes visible" true
        (Client.get c "/f/a" <> None && Client.get c "/f/b" <> None
        && Client.get c "/f/c" <> None))

(* ------------------------------------------------------------------ *)
(* Session-timeout clamp (mirrors the Fault.set_probability fix) *)

let test_session_timeout_clamp () =
  Drive.ensemble (fun _sim ens ->
      let leader = Ensemble.await_leader ens in
      let observer = Ensemble.connect ens ~name:"observer" () in
      let victim = Ensemble.connect ens ~name:"victim" () in
      let sid = Client.session_id victim in
      (* Close the client object; we drive its session with raw requests so
         the pathological timeouts bypass any client-side sanitizing. *)
      Client.close victim;
      let net = Ensemble.net ens in
      let send ~req_id ~session_timeout request =
        Des.Net.send net ~src:sid ~dst:leader
          (Types.Client_req { req_id; session_timeout; request })
      in
      send ~req_id:1 ~session_timeout:Float.nan
        (Types.Submit
           (Types.Create
              {
                session = sid;
                req = 1;
                key = "/clamp/e";
                value = "x";
                ephemeral = true;
                sequential = false;
              }));
      eventually "ephemeral created" (fun () ->
          Client.get observer "/clamp/e" <> None);
      (* Ping with NaN and non-positive timeouts across several reaper
         ticks (the session checker runs every second).  Unclamped, a
         non-positive timeout expires the session at the next tick even
         though its client is pinging; NaN makes it immortal instead.
         Clamped, both fall back to the default and the session lives. *)
      for i = 0 to 5 do
        send ~req_id:(100 + i)
          ~session_timeout:(if i mod 2 = 0 then Float.nan else -1.0)
          Types.Ping;
        Des.Proc.sleep 1.2
      done;
      check bool_c "ephemeral survives pathological timeouts" true
        (Client.get observer "/clamp/e" <> None))

(* ------------------------------------------------------------------ *)
(* Quorum arithmetic over the effective configuration (qcheck) *)

let member_sets =
  (* Membership sizes 1..7 drawn from a node-id space of 0..9. *)
  QCheck.Gen.(
    sized_size (int_range 1 7) (fun n st ->
        let rec draw acc =
          if List.length acc >= n then acc
          else
            let id = int_range 0 9 st in
            if List.mem id acc then draw acc else draw (id :: acc)
        in
        List.sort compare (draw [])))

let arb_members =
  QCheck.make ~print:(fun ms ->
      "{" ^ String.concat "," (List.map string_of_int ms) ^ "}")
    member_sets

let prop_quorum_majority =
  QCheck.Test.make ~name:"quorum is a strict majority of the members"
    ~count:200 arb_members (fun members ->
      let n = List.length members in
      let q = Types.quorum_of members in
      (* Strict majority: q acks are more than half, q-1 are not. *)
      (2 * q > n) && (2 * (q - 1) <= n))

let prop_removed_votes_never_count =
  QCheck.Test.make
    ~name:"votes from outside the configuration never reach quorum"
    ~count:200
    QCheck.(pair arb_members (list_of_size (Gen.int_range 0 20) (int_range 0 15)))
    (fun (members, votes) ->
      let counted = Types.count_votes ~members votes in
      let member_votes =
        List.sort_uniq compare (List.filter (fun v -> List.mem v members) votes)
      in
      (* Exactly the distinct member votes count — duplicates and
         non-members (removed servers, unpromoted learners) never do. *)
      counted = List.length member_votes
      && counted <= List.length members)

let prop_removal_shrinks_quorum =
  QCheck.Test.make ~name:"removing a member never raises the quorum"
    ~count:200 arb_members (fun members ->
      match members with
      | [] | [ _ ] -> QCheck.assume_fail ()
      | doomed :: _ ->
        Types.quorum_of (Types.remove_member members doomed)
        <= Types.quorum_of members)

(* ------------------------------------------------------------------ *)
(* Rejoin within one term: the delayed-ack window, stock vs. ablation *)

(* Drive the exact nemesis sequence by hand: egress latency on a follower,
   remove it, re-add a fresh instance at the same id while the old
   incarnation's high-match append replies are still in flight.  The
   leader cannot reach the victim for 2 s after the removal, so the
   fresh instance is still empty when those replies land: a leader that
   folds every commit into its snapshot would otherwise answer the first
   stale reply with an install that catches the fresh instance up past
   every stale match index at once.  Returns
   [(lied, stale_rejected)]: whether the leader's progress entry for the
   victim ever ran ahead of the victim's actual log, and how many stale
   session echoes the leader dropped. *)
let rejoin_window ~session_ids =
  let config = { Types.default_config with Types.session_ids } in
  let lied = ref false in
  let stale = ref 0 in
  Drive.ensemble ~seed:11 ~config (fun sim ens ->
      let leader = Ensemble.await_leader ens in
      let c = Ensemble.connect ens ~name:"load" () in
      (* Steady append traffic, so the victim has fresh acks to delay. *)
      let writer =
        Des.Proc.spawn ~name:"writer" sim (fun () ->
            let i = ref 0 in
            while true do
              incr i;
              ignore
                (Client.write c ~key:(Printf.sprintf "/w/%03d" (!i mod 50))
                   ~value:(string_of_int !i) ());
              Des.Proc.sleep 0.02
            done)
      in
      Des.Proc.sleep 5.;
      let victim =
        match List.filter (fun i -> i <> leader) (Ensemble.members ens) with
        | v :: _ -> v
        | [] -> Alcotest.fail "no follower to churn"
      in
      (* Watch the leader's progress entry for the victim against the
         victim's actual log, concurrently with the churn below. *)
      let poller =
        Des.Proc.spawn ~name:"poller" sim (fun () ->
            while true do
              (match Ensemble.leader_id ens with
               | Some lid ->
                 List.iter
                   (fun (peer, match_index) ->
                     if
                       peer = victim
                       && List.mem peer (Ensemble.replica_ids ens)
                       && match_index
                          > Replica.last_log_index (Ensemble.replica ens peer)
                     then lied := true)
                   (Replica.progress_snapshot (Ensemble.replica ens lid))
               | None -> ());
              Des.Proc.sleep 0.05
            done)
      in
      let net = Ensemble.net ens in
      Des.Net.set_node_delay net victim 1.0;
      Des.Proc.sleep 0.15;
      Ensemble.remove_replica ens victim;
      Des.Net.partition net [ victim ] [ leader ];
      ignore
        (Des.Proc.spawn ~name:"heal" sim (fun () ->
             Des.Proc.sleep 2.;
             Des.Net.heal net));
      ignore
        (Des.Proc.spawn ~name:"clear-delay" sim (fun () ->
             Des.Proc.sleep 4.;
             Des.Net.set_node_delay net victim 0.));
      ignore (Ensemble.add_replica ens ~id:victim ());
      (* Let any still-delayed echoes land before reading the verdict. *)
      Des.Proc.sleep 3.;
      stale := (Ensemble.membership_stats ens).Types.stale_sessions_rejected;
      Des.Proc.kill writer;
      Des.Proc.kill poller;
      Client.close c);
  (!lied, !stale)

let test_rejoin_stock_clean () =
  let lied, stale = rejoin_window ~session_ids:true in
  check bool_c "stale echoes were actually in flight" true (stale > 0);
  check bool_c "progress never ran ahead of the rejoined log" false lied

let test_rejoin_ablation_lies () =
  let lied, stale = rejoin_window ~session_ids:false in
  check int_c "nothing rejected without session ids" 0 stale;
  check bool_c "leader progress ran ahead of the rejoined log" true lied

(* ------------------------------------------------------------------ *)

let suite =
  [
    ("add then remove a replica", `Quick, test_add_remove_replica);
    ( "newcomer participates in fail-over",
      `Quick,
      test_add_survives_leader_crash_of_old_member );
    ("client follows membership changes", `Quick, test_client_follows_membership);
    ("session-timeout clamp", `Quick, test_session_timeout_clamp);
    QCheck_alcotest.to_alcotest prop_quorum_majority;
    QCheck_alcotest.to_alcotest prop_removed_votes_never_count;
    QCheck_alcotest.to_alcotest prop_removal_shrinks_quorum;
    ("rejoin window: stock stays honest", `Quick, test_rejoin_stock_clean);
    ( "rejoin window: no-session-id build lies",
      `Quick,
      test_rejoin_ablation_lies );
  ]

let () = Alcotest.run "membership" [ ("membership", suite) ]
