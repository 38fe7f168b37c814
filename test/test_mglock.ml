(* Tests for the multi-granularity lock manager. *)

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int

let p = Data.Path.v

let all_modes = [ Mglock.R; Mglock.W; Mglock.IR; Mglock.IW ]

(* The paper's footnote: "IW locks conflict with R/W locks, while IR locks
   conflict with W locks" — plus the classic R/W core. *)
let expected_compatible a b =
  match a, b with
  | Mglock.IR, Mglock.W | Mglock.W, Mglock.IR -> false
  | Mglock.IR, _ | _, Mglock.IR -> true
  | Mglock.IW, Mglock.IW -> true
  | Mglock.IW, _ | _, Mglock.IW -> false
  | Mglock.R, Mglock.R -> true
  | _ -> false

let test_compat_matrix () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check bool_c
            (Printf.sprintf "compat %s %s" (Mglock.mode_to_string a)
               (Mglock.mode_to_string b))
            (expected_compatible a b) (Mglock.compatible a b))
        all_modes)
    all_modes

let test_compat_symmetric () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check bool_c "symmetric" (Mglock.compatible a b)
            (Mglock.compatible b a))
        all_modes)
    all_modes

let test_join_lattice () =
  List.iter
    (fun a ->
      check bool_c "join idempotent" true (Mglock.join a a = a);
      List.iter
        (fun b ->
          let j = Mglock.join a b in
          check bool_c "join commutative" true (j = Mglock.join b a);
          (* Anything incompatible with a or b is incompatible with the join. *)
          List.iter
            (fun c ->
              if not (Mglock.compatible a c) || not (Mglock.compatible b c)
              then
                check bool_c "join at least as strong" false
                  (Mglock.compatible j c))
            all_modes)
        all_modes)
    all_modes

let test_intention () =
  check bool_c "R->IR" true (Mglock.intention Mglock.R = Mglock.IR);
  check bool_c "W->IW" true (Mglock.intention Mglock.W = Mglock.IW);
  check bool_c "IR->IR" true (Mglock.intention Mglock.IR = Mglock.IR);
  check bool_c "IW->IW" true (Mglock.intention Mglock.IW = Mglock.IW)

(* The semantic order on modes: a is at most as strong as b iff everything
   a conflicts with, b conflicts with too.  [join] must be the least upper
   bound of this order, and [intention] must be monotone w.r.t. it. *)
let conflict_set m = List.filter (fun c -> not (Mglock.compatible m c)) all_modes

let leq a b =
  List.for_all (fun c -> List.mem c (conflict_set b)) (conflict_set a)

let test_join_is_lub () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let j = Mglock.join a b in
          let name fmt =
            Printf.sprintf fmt (Mglock.mode_to_string a)
              (Mglock.mode_to_string b)
          in
          check bool_c (name "join %s %s is an upper bound of the left arg")
            true (leq a j);
          check bool_c (name "join %s %s is an upper bound of the right arg")
            true (leq b j);
          List.iter
            (fun m ->
              if leq a m && leq b m then
                check bool_c
                  (name "join %s %s is least among upper bounds")
                  true (leq j m))
            all_modes)
        all_modes)
    all_modes

let test_intention_monotone () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if leq a b then
            check bool_c
              (Printf.sprintf "intention monotone on %s <= %s"
                 (Mglock.mode_to_string a) (Mglock.mode_to_string b))
              true
              (leq (Mglock.intention a) (Mglock.intention b)))
        all_modes)
    all_modes

let acquire_ok t ~txn locks =
  match Mglock.try_acquire t ~txn locks with
  | Ok () -> ()
  | Error c ->
    Alcotest.failf "unexpected conflict: %s"
      (Format.asprintf "%a" Mglock.pp_conflict c)

let acquire_conflict t ~txn locks =
  match Mglock.try_acquire t ~txn locks with
  | Ok () -> Alcotest.fail "expected conflict"
  | Error c -> c

let test_ancestors_get_intention_locks () =
  let t = Mglock.create () in
  acquire_ok t ~txn:1 [ p "/a/b/c", Mglock.W ];
  let held = Mglock.held_by t ~txn:1 in
  let find path = List.assoc_opt (p path) (List.map (fun (k, v) -> (k, v)) held) in
  check bool_c "W on object" true (find "/a/b/c" = Some Mglock.W);
  check bool_c "IW on parent" true (find "/a/b" = Some Mglock.IW);
  check bool_c "IW on grandparent" true (find "/a" = Some Mglock.IW);
  check bool_c "IW on root" true (find "/" = Some Mglock.IW)

let test_sibling_writes_allowed () =
  let t = Mglock.create () in
  acquire_ok t ~txn:1 [ p "/a/b", Mglock.W ];
  acquire_ok t ~txn:2 [ p "/a/c", Mglock.W ]

let test_write_blocks_descendant_read () =
  let t = Mglock.create () in
  acquire_ok t ~txn:1 [ p "/a", Mglock.W ];
  let c = acquire_conflict t ~txn:2 [ p "/a/b", Mglock.R ] in
  (* The IR on /a collides with txn 1's W. *)
  check bool_c "conflict at /a" true (Data.Path.equal c.Mglock.path (p "/a"));
  check int_c "holder" 1 c.Mglock.holder

let test_read_blocks_ancestor_write () =
  let t = Mglock.create () in
  acquire_ok t ~txn:1 [ p "/a/b", Mglock.R ];
  let _ = acquire_conflict t ~txn:2 [ p "/a", Mglock.W ] in
  (* But a read of the ancestor is fine. *)
  acquire_ok t ~txn:3 [ p "/a", Mglock.R ]

let test_concurrent_reads () =
  let t = Mglock.create () in
  acquire_ok t ~txn:1 [ p "/a/b", Mglock.R ];
  acquire_ok t ~txn:2 [ p "/a/b", Mglock.R ];
  acquire_ok t ~txn:3 [ p "/a", Mglock.R ]

(* A full observable snapshot of the table: holders of every probe path
   plus held_by of every probe txn.  A refused acquire must leave this
   exactly unchanged — not just the entry count. *)
let snapshot t paths txns =
  ( List.map
      (fun path ->
        ( Data.Path.to_string path,
          List.map
            (fun (txn, m) -> (txn, Mglock.mode_to_string m))
            (Mglock.holders t path) ))
      paths,
    List.map
      (fun txn ->
        ( txn,
          List.map
            (fun (path, m) ->
              (Data.Path.to_string path, Mglock.mode_to_string m))
            (Mglock.held_by t ~txn) ))
      txns )

let test_all_or_nothing () =
  let t = Mglock.create () in
  acquire_ok t ~txn:1 [ p "/x", Mglock.W ];
  let probe_paths = List.map p [ "/"; "/x"; "/free" ] in
  let before = snapshot t probe_paths [ 1; 2 ] in
  (* txn 2 wants /free (would succeed) and /x (conflicts): nothing granted. *)
  let _ = acquire_conflict t ~txn:2 [ p "/free", Mglock.W; p "/x", Mglock.W ] in
  check bool_c "holders and held_by exactly unchanged" true
    (before = snapshot t probe_paths [ 1; 2 ]);
  check (Alcotest.list (Alcotest.pair Alcotest.pass Alcotest.pass))
    "txn2 holds nothing" [] (Mglock.held_by t ~txn:2)

let test_self_upgrade () =
  let t = Mglock.create () in
  acquire_ok t ~txn:1 [ p "/a", Mglock.R ];
  acquire_ok t ~txn:1 [ p "/a", Mglock.W ];
  (* Upgraded in place. *)
  check bool_c "upgraded" true
    (List.exists (fun (q, m) -> Data.Path.equal q (p "/a") && m = Mglock.W)
       (Mglock.held_by t ~txn:1));
  let _ = acquire_conflict t ~txn:2 [ p "/a", Mglock.R ] in
  ()

let test_upgrade_blocked_by_other_reader () =
  let t = Mglock.create () in
  acquire_ok t ~txn:1 [ p "/a", Mglock.R ];
  acquire_ok t ~txn:2 [ p "/a", Mglock.R ];
  let c = acquire_conflict t ~txn:1 [ p "/a", Mglock.W ] in
  check int_c "other reader blocks upgrade" 2 c.Mglock.holder

let test_release_unblocks () =
  let t = Mglock.create () in
  acquire_ok t ~txn:1 [ p "/a/b", Mglock.W ];
  let _ = acquire_conflict t ~txn:2 [ p "/a/b", Mglock.W ] in
  ignore (Mglock.release_all t ~txn:1);
  check int_c "empty table" 0 (Mglock.lock_count t);
  acquire_ok t ~txn:2 [ p "/a/b", Mglock.W ]

let test_release_unknown_txn () =
  let t = Mglock.create () in
  check (Alcotest.list int_c) "nothing woken" []
    (Mglock.release_all t ~txn:42);
  check int_c "still empty" 0 (Mglock.lock_count t)

(* ------------------------------------------------------------------ *)
(* Wake-on-release: the waiters index *)

let test_release_wakes_waiters () =
  let t = Mglock.create () in
  acquire_ok t ~txn:1 [ p "/a/b", Mglock.W ];
  let c2 = acquire_conflict t ~txn:2 [ p "/a/b", Mglock.W ] in
  Mglock.wait t ~txn:2 ~on:c2.Mglock.path [ p "/a/b", Mglock.W ];
  let c3 = acquire_conflict t ~txn:3 [ p "/a", Mglock.W ] in
  Mglock.wait t ~txn:3 ~on:c3.Mglock.path [ p "/a", Mglock.W ];
  check int_c "two parked" 2 (Mglock.waiter_count t);
  check bool_c "txn2 parked on its conflict node" true
    (Mglock.waiting_on t ~txn:2 = Some c2.Mglock.path);
  (* txn 1 held both conflict nodes (/a/b and the IW ancestor /a), so the
     release wakes both waiters, ascending and deduplicated. *)
  check (Alcotest.list int_c) "both woken" [ 2; 3 ]
    (Mglock.release_all t ~txn:1);
  check int_c "waiters index drained" 0 (Mglock.waiter_count t);
  check bool_c "txn2 no longer parked" true (Mglock.waiting_on t ~txn:2 = None)

let test_release_wakes_only_held_nodes () =
  let t = Mglock.create () in
  acquire_ok t ~txn:1 [ p "/a", Mglock.W ];
  acquire_ok t ~txn:2 [ p "/e", Mglock.W ];
  let c3 = acquire_conflict t ~txn:3 [ p "/e", Mglock.W ] in
  Mglock.wait t ~txn:3 ~on:c3.Mglock.path [ p "/e", Mglock.W ];
  (* txn 1 never held /e: its release must not wake txn 3. *)
  check (Alcotest.list int_c) "unrelated release wakes nobody" []
    (Mglock.release_all t ~txn:1);
  check int_c "txn3 still parked" 1 (Mglock.waiter_count t);
  check (Alcotest.list int_c) "the right release wakes it" [ 3 ]
    (Mglock.release_all t ~txn:2)

let test_spurious_wakeup_reparks () =
  let t = Mglock.create () in
  acquire_ok t ~txn:1 [ p "/a", Mglock.R ];
  acquire_ok t ~txn:2 [ p "/a", Mglock.R ];
  let c3 = acquire_conflict t ~txn:3 [ p "/a", Mglock.W ] in
  Mglock.wait t ~txn:3 ~on:c3.Mglock.path [ p "/a", Mglock.W ];
  (* First reader leaves: txn 3 is woken but still conflicts with the
     second reader — the spurious case; it re-parks and the second release
     wakes it again. *)
  check (Alcotest.list int_c) "woken by first reader" [ 3 ]
    (Mglock.release_all t ~txn:1);
  let c3' = acquire_conflict t ~txn:3 [ p "/a", Mglock.W ] in
  Mglock.wait t ~txn:3 ~on:c3'.Mglock.path [ p "/a", Mglock.W ];
  check (Alcotest.list int_c) "woken by second reader" [ 3 ]
    (Mglock.release_all t ~txn:2);
  acquire_ok t ~txn:3 [ p "/a", Mglock.W ]

let test_cancel_wait () =
  let t = Mglock.create () in
  acquire_ok t ~txn:1 [ p "/a", Mglock.W ];
  let c2 = acquire_conflict t ~txn:2 [ p "/a", Mglock.W ] in
  Mglock.wait t ~txn:2 ~on:c2.Mglock.path [ p "/a", Mglock.W ];
  Mglock.cancel_wait t ~txn:2;
  check int_c "no waiters left" 0 (Mglock.waiter_count t);
  check (Alcotest.list int_c) "cancelled waiter not woken" []
    (Mglock.release_all t ~txn:1)

let test_holders () =
  let t = Mglock.create () in
  acquire_ok t ~txn:1 [ p "/a", Mglock.R ];
  acquire_ok t ~txn:2 [ p "/a", Mglock.R ];
  match Mglock.holders t (p "/a") with
  | [ (1, Mglock.R); (2, Mglock.R) ] -> ()
  | _ -> Alcotest.fail "holders mismatch"

(* ------------------------------------------------------------------ *)
(* Head reservation: the oldest waiter's wanted set *)

let test_head_reservation () =
  let t = Mglock.create () in
  acquire_ok t ~txn:1 [ p "/a", Mglock.W ];
  (* txn 2 wants /a and /e; it parks on /a, reserving /e as well. *)
  let want2 = [ p "/a", Mglock.W; p "/e", Mglock.W ] in
  let c2 = acquire_conflict t ~txn:2 want2 in
  Mglock.wait t ~txn:2 ~on:c2.Mglock.path want2;
  (* A younger request for /e conflicts with no holder, only with the
     head's reservation: it is refused, names the head, and points at the
     head's node so one release wakes both. *)
  let c3 = acquire_conflict t ~txn:3 [ p "/e", Mglock.R ] in
  check bool_c "reserved" true c3.Mglock.reserved;
  check int_c "head named as holder" 2 c3.Mglock.holder;
  check bool_c "parks on the head's node" true
    (Data.Path.equal c3.Mglock.path (p "/a"));
  Mglock.wait t ~txn:3 ~on:c3.Mglock.path [ p "/e", Mglock.R ];
  (* Unrelated work still flows, and an internal (negative) owner is never
     younger than the head. *)
  acquire_ok t ~txn:4 [ p "/x", Mglock.W ];
  acquire_ok t ~txn:(-1) [ p "/e/f", Mglock.R ];
  ignore (Mglock.release_all t ~txn:(-1));
  check (Alcotest.list int_c) "head and its dependant woken together" [ 2; 3 ]
    (Mglock.release_all t ~txn:1);
  acquire_ok t ~txn:2 want2

let test_reservation_ends_with_registration () =
  let t = Mglock.create () in
  acquire_ok t ~txn:1 [ p "/a", Mglock.W ];
  let want2 = [ p "/a", Mglock.W; p "/e", Mglock.W ] in
  let c2 = acquire_conflict t ~txn:2 want2 in
  Mglock.wait t ~txn:2 ~on:c2.Mglock.path want2;
  let _ = acquire_conflict t ~txn:3 [ p "/e", Mglock.W ] in
  (* An already-admitted txn swapping its lock set skips the check. *)
  acquire_ok t ~txn:5 [];
  (match Mglock.try_acquire ~reservations:false t ~txn:5 [ p "/e", Mglock.W ] with
   | Ok () -> ignore (Mglock.release_all t ~txn:5)
   | Error _ -> Alcotest.fail "swap refused by a reservation");
  Mglock.cancel_wait t ~txn:2;
  acquire_ok t ~txn:3 [ p "/e", Mglock.W ]

(* ------------------------------------------------------------------ *)
(* Property: whatever sequence of acquires/releases happens, all granted
   locks held by distinct transactions on the same path stay pairwise
   compatible, and failed acquires change nothing. *)

type op =
  | Acquire of int * (string * Mglock.mode) list
  | Release of int

let op_gen =
  let open QCheck.Gen in
  let path_gen = oneofl [ "/a"; "/a/b"; "/a/b/c"; "/a/d"; "/e"; "/e/f" ] in
  let mode_gen = oneofl all_modes in
  let txn_gen = int_range 1 5 in
  frequency
    [
      ( 4,
        map2
          (fun txn locks -> Acquire (txn, locks))
          txn_gen
          (list_size (int_range 1 3) (pair path_gen mode_gen)) );
      1, map (fun txn -> Release txn) txn_gen;
    ]

let ops_arbitrary =
  QCheck.make
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | Acquire (txn, locks) ->
               Printf.sprintf "acquire %d [%s]" txn
                 (String.concat ","
                    (List.map
                       (fun (pp, m) -> pp ^ ":" ^ Mglock.mode_to_string m)
                       locks))
             | Release txn -> Printf.sprintf "release %d" txn)
           ops))
    QCheck.Gen.(list_size (int_bound 40) op_gen)

let table_invariant t paths =
  List.for_all
    (fun path ->
      let holders = Mglock.holders t path in
      List.for_all
        (fun (txn_a, mode_a) ->
          List.for_all
            (fun (txn_b, mode_b) ->
              txn_a = txn_b || Mglock.compatible mode_a mode_b)
            holders)
        holders)
    paths

let all_paths =
  List.map p [ "/"; "/a"; "/a/b"; "/a/b/c"; "/a/d"; "/e"; "/e/f" ]

let lock_safety_prop =
  QCheck.Test.make ~name:"granted locks always pairwise compatible" ~count:300
    ops_arbitrary (fun ops ->
      let t = Mglock.create () in
      List.for_all
        (fun op ->
          (match op with
           | Acquire (txn, locks) ->
             let locks = List.map (fun (s, m) -> (p s, m)) locks in
             let before = Mglock.lock_count t in
             (match Mglock.try_acquire t ~txn locks with
              | Ok () -> ()
              | Error _ ->
                if Mglock.lock_count t <> before then
                  QCheck.Test.fail_report "failed acquire mutated table")
           | Release txn -> ignore (Mglock.release_all t ~txn));
          table_invariant t all_paths)
        ops)

(* Hierarchy invariant: whenever a transaction holds an object lock, it
   also holds at least an intention lock on every ancestor. *)
let intention_coverage_prop =
  QCheck.Test.make ~name:"object locks imply ancestor intention locks"
    ~count:200 ops_arbitrary (fun ops ->
      let t = Mglock.create () in
      List.for_all
        (fun op ->
          (match op with
           | Acquire (txn, locks) ->
             let locks = List.map (fun (s, m) -> (p s, m)) locks in
             ignore (Mglock.try_acquire t ~txn locks)
           | Release txn -> ignore (Mglock.release_all t ~txn));
          List.for_all
            (fun txn ->
              let held = Mglock.held_by t ~txn in
              List.for_all
                (fun (path, _) ->
                  List.for_all
                    (fun ancestor ->
                      List.exists
                        (fun (q, _) -> Data.Path.equal q ancestor)
                        held)
                    (Data.Path.ancestors path))
                held)
            [ 1; 2; 3; 4; 5 ])
        ops)

let release_clears_prop =
  QCheck.Test.make ~name:"release_all removes every entry of the txn"
    ~count:200 ops_arbitrary (fun ops ->
      let t = Mglock.create () in
      List.iter
        (fun op ->
          match op with
          | Acquire (txn, locks) ->
            let locks = List.map (fun (s, m) -> (p s, m)) locks in
            ignore (Mglock.try_acquire t ~txn locks)
          | Release txn -> ignore (Mglock.release_all t ~txn))
        ops;
      List.iter (fun txn -> ignore (Mglock.release_all t ~txn)) [ 1; 2; 3; 4; 5 ];
      Mglock.lock_count t = 0)

(* A refused acquire must leave the full observable state — holders of
   every path and held_by of every txn — exactly unchanged, whatever
   history precedes it. *)
let refused_acquire_unchanged_prop =
  QCheck.Test.make ~name:"refused try_acquire leaves holders/held_by unchanged"
    ~count:300 ops_arbitrary (fun ops ->
      let t = Mglock.create () in
      let txns = [ 1; 2; 3; 4; 5 ] in
      List.for_all
        (fun op ->
          match op with
          | Acquire (txn, locks) ->
            let locks = List.map (fun (s, m) -> (p s, m)) locks in
            let before = snapshot t all_paths txns in
            (match Mglock.try_acquire t ~txn locks with
             | Ok () -> true
             | Error _ -> before = snapshot t all_paths txns)
          | Release txn ->
            ignore (Mglock.release_all t ~txn);
            true)
        ops)


(* ------------------------------------------------------------------ *)
(* Property: the scheduler over the lock manager, no platform.  Random
   lock sets on a small tree arrive one by one, interleaved with releases
   of started txns and cancellations of parked ones.  Checked:
   (a) a granted txn never conflicts with the oldest registered waiter
       (the head) when that waiter is older than it;
   (b) once every holder has released, every txn that was not cancelled
       has been granted — no wakeup is lost;
   (c) a txn that conflicts with neither a holder nor the head is granted
       while the head stays parked. *)

type sched_op = Arrive of (string * Mglock.mode) list | Finish of int | Cancel of int

let sched_op_gen =
  let open QCheck.Gen in
  let path_gen = oneofl [ "/a"; "/a/b"; "/a/c"; "/d"; "/d/e"; "/f" ] in
  let lock_gen = pair path_gen (oneofl [ Mglock.R; Mglock.W ]) in
  frequency
    [
      (5, map (fun l -> Arrive l) (list_size (int_range 1 3) lock_gen));
      (3, map (fun k -> Finish k) (int_bound 7));
      (1, map (fun k -> Cancel k) (int_bound 7));
    ]

let sched_ops_arbitrary =
  let lock_str (s, m) = s ^ ":" ^ Mglock.mode_to_string m in
  QCheck.make
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | Arrive l -> "arrive [" ^ String.concat "," (List.map lock_str l) ^ "]"
             | Finish k -> Printf.sprintf "finish #%d" k
             | Cancel k -> Printf.sprintf "cancel #%d" k)
           ops))
    QCheck.Gen.(list_size (int_range 5 60) sched_op_gen)

(* The full requirement of a request, as the reference for conflicts:
   every node with its mode joined, ancestors with intention modes. *)
let requirement locks =
  List.fold_left
    (fun acc (path, mode) ->
      let add acc path mode =
        let key = Data.Path.to_string path in
        match List.assoc_opt key acc with
        | None -> (key, mode) :: acc
        | Some m -> (key, Mglock.join m mode) :: List.remove_assoc key acc
      in
      List.fold_left
        (fun acc anc -> add acc anc (Mglock.intention mode))
        (add acc path mode) (Data.Path.ancestors path))
    [] locks

let requirements_conflict a b =
  List.exists
    (fun (key, ma) ->
      match List.assoc_opt key b with
      | Some mb -> not (Mglock.compatible ma mb)
      | None -> false)
    a

let sched_prop =
  QCheck.Test.make ~name:"scheduler: head reserved, work conserved, no lost wakeup"
    ~count:500 sched_ops_arbitrary (fun ops ->
      let locks = Mglock.create () in
      let sched = Tropic.Sched.create ~stats:(Tropic.Stats.fresh_stats ()) () in
      let wanted = Hashtbl.create 16 in (* id -> request *)
      let running = ref [] (* started, oldest first *) in
      let parked = ref [] and cancelled = ref [] and granted = ref [] in
      let next_id = ref 0 in
      let req id = requirement (Hashtbl.find wanted id) in
      let attempt (txn : Tropic.Txn.t) ~woken:_ =
        let id = txn.Tropic.Txn.id in
        parked := List.filter (( <> ) id) !parked;
        let holder_conflict =
          List.exists (fun h -> requirements_conflict (req id) (req h)) !running
        in
        let head =
          List.filter
            (fun w -> Mglock.waiting_on locks ~txn:w <> None)
            (List.init !next_id (fun i -> i + 1))
          |> List.fold_left min max_int
        in
        let head_conflict =
          head < id && requirements_conflict (req id) (req head)
        in
        let request = Hashtbl.find wanted id in
        match Mglock.try_acquire locks ~txn:id request with
        | Ok () ->
          if head_conflict then
            QCheck.Test.fail_reportf "(a) txn %d granted against head %d" id head;
          running := !running @ [ id ];
          granted := id :: !granted;
          `Started
        | Error c ->
          if not (holder_conflict || head_conflict) then
            QCheck.Test.fail_reportf "(c) txn %d refused with no conflict (head %d)"
              id head;
          Mglock.wait locks ~txn:id ~on:c.Mglock.path request;
          parked := id :: !parked;
          `Parked (Tropic.Sched.Lock 0.)
      in
      let drain () = Tropic.Sched.drain sched ~attempt in
      let finish id =
        running := List.filter (( <> ) id) !running;
        Tropic.Sched.wake sched (Mglock.release_all locks ~txn:id);
        drain ()
      in
      let nth l k = List.nth l (k mod List.length l) in
      List.iter
        (function
          | Arrive request ->
            incr next_id;
            Hashtbl.replace wanted !next_id
              (List.map (fun (s, m) -> (p s, m)) request);
            Tropic.Sched.submit sched
              (Tropic.Txn.make ~id:!next_id ~proc:"p" ~args:[] ~submitted_at:0.);
            drain ()
          | Finish k -> if !running <> [] then finish (nth !running k)
          | Cancel k ->
            if !parked <> [] then begin
              let id = nth (List.sort compare !parked) k in
              parked := List.filter (( <> ) id) !parked;
              cancelled := id :: !cancelled;
              (match Tropic.Sched.remove sched id with
               | `Blocked -> Mglock.cancel_wait locks ~txn:id
               | `Ready | `Absent -> ())
            end)
        ops;
      while !running <> [] do
        finish (List.hd !running)
      done;
      let lost =
        List.filter
          (fun id -> not (List.mem id !granted || List.mem id !cancelled))
          (List.init !next_id (fun i -> i + 1))
      in
      if lost <> [] then
        QCheck.Test.fail_reportf "(b) never granted: %s"
          (String.concat "," (List.map string_of_int lost));
      Tropic.Sched.length sched = 0 && Mglock.waiter_count locks = 0)

(* Property: [Sched] against a list model.  Random submit, wake, remove
   and drain steps; each attempt in a drain starts, finishes or parks
   (under each cause) as a random script says.  Checked after every step:
   the drain attempts the woken blocked entries first, ascending by id and
   handed the cause they parked under, then the ready ones in FIFO order;
   [length] = ready + blocked, [parked] lists the blocked entries with
   no wake pending, and the record counts each wake delivered from a lock
   park and each woken entry that parks again.  At the end every entry is woken and finished: each
   submitted txn left the scheduler exactly once — none lost, none
   duplicated. *)

type sched_step =
  | Submit
  | Wake of int list
  | Remove of int
  | Drain of int list (* outcome script, cycled: start/finish/park x3 *)

let sched_steps_arbitrary =
  let open QCheck.Gen in
  let step =
    frequency
      [
        (4, return Submit);
        (3, map (fun l -> Wake l) (list_size (int_range 1 4) (int_range 0 16)));
        (1, map (fun k -> Remove k) (int_range 0 16));
        (3, map (fun l -> Drain l) (list_size (int_range 1 6) (int_bound 4)));
      ]
  in
  QCheck.make
    ~print:(fun steps ->
      let ints l = String.concat "," (List.map string_of_int l) in
      String.concat "; "
        (List.map
           (function
             | Submit -> "submit"
             | Wake l -> "wake [" ^ ints l ^ "]"
             | Remove k -> Printf.sprintf "remove %d" k
             | Drain l -> "drain [" ^ ints l ^ "]")
           steps))
    (list_size (int_range 1 40) step)

let sched_model_prop =
  QCheck.Test.make ~name:"scheduler: agrees with a list model" ~count:500
    sched_steps_arbitrary (fun steps ->
      let module S = Tropic.Sched in
      let stats = Tropic.Stats.fresh_stats () in
      let sched = S.create ~stats () in
      (* the model: ready FIFO, blocked entries, ids with a wake pending *)
      let ready = ref [] and blocked = ref [] and wakes = ref [] in
      let left = Hashtbl.create 16 (* id -> times it left the scheduler *) in
      let leave id =
        let n = Option.value ~default:0 (Hashtbl.find_opt left id) in
        Hashtbl.replace left id (n + 1)
      in
      let ids l = String.concat "," (List.map (fun (id, _) -> string_of_int id) l) in
      let next_id = ref 0 and attempts = ref 0 in
      (* the counters: wakes delivered from a lock park, woken re-parks *)
      let wakeups = ref 0 and spurious = ref 0 in
      let drain script =
        let delivered =
          List.filter (fun (id, _) -> List.mem id !wakes) !blocked
          |> List.sort compare
        in
        blocked := List.filter (fun (id, _) -> not (List.mem id !wakes)) !blocked;
        wakes := [];
        List.iter
          (function _, S.Lock _ -> incr wakeups | _, (S.Breaker _ | S.Votes) -> ())
          delivered;
        let expected = List.map (fun (id, c) -> (id, Some c)) delivered @ !ready in
        ready := [];
        let seen = ref [] and k = ref 0 in
        let attempt (txn : Tropic.Txn.t) ~woken =
          let id = txn.Tropic.Txn.id in
          seen := (id, woken) :: !seen;
          let code = List.nth script (!k mod List.length script) in
          incr k;
          incr attempts;
          let park cause =
            if woken <> None then incr spurious;
            blocked := !blocked @ [ (id, cause) ];
            `Parked cause
          in
          match code with
          | 0 -> leave id; `Started
          | 1 -> leave id; `Finished
          | 2 -> park (S.Lock (float_of_int !attempts))
          | 3 -> park (S.Breaker [ p (Printf.sprintf "/h%d" !attempts) ])
          | _ -> park S.Votes
        in
        S.drain sched ~attempt;
        (* each delivered entry is attempted first and handed the cause it
           parked under; a ready one is handed none *)
        let woken = List.map snd (List.rev !seen) in
        if
          List.filteri (fun i _ -> i < List.length delivered) woken
          <> List.map (fun (_, c) -> Some c) delivered
          || List.exists Option.is_some
               (List.filteri (fun i _ -> i >= List.length delivered) woken)
        then
          QCheck.Test.fail_reportf "attempts were handed other causes than delivered";
        if List.rev !seen <> expected then
          QCheck.Test.fail_reportf "drain attempted [%s], model expects [%s]"
            (ids (List.rev !seen)) (ids expected)
      in
      let check what =
        let parked =
          List.filter (fun (id, _) -> not (List.mem id !wakes)) !blocked
        in
        if S.length sched <> List.length !ready + List.length !blocked then
          QCheck.Test.fail_reportf "%s: length %d, model %d + %d" what
            (S.length sched) (List.length !ready) (List.length !blocked);
        if S.blocked_length sched <> List.length !blocked then
          QCheck.Test.fail_reportf "%s: blocked_length %d, model %d" what
            (S.blocked_length sched) (List.length !blocked);
        if S.parked sched <> List.sort compare parked then
          QCheck.Test.fail_reportf "%s: parked [%s], model [%s]" what
            (ids (S.parked sched)) (ids (List.sort compare parked));
        if S.has_wakes sched <> (!wakes <> []) then
          QCheck.Test.fail_reportf "%s: has_wakes differs from the model" what;
        if
          stats.Tropic.Stats.wakeups <> !wakeups
          || stats.Tropic.Stats.spurious_wakeups <> !spurious
        then
          QCheck.Test.fail_reportf "%s: wakeups %d (%d spurious), model %d (%d)"
            what stats.Tropic.Stats.wakeups stats.Tropic.Stats.spurious_wakeups
            !wakeups !spurious
      in
      List.iter
        (fun step ->
          (match step with
           | Submit ->
             incr next_id;
             S.submit sched
               (Tropic.Txn.make ~id:!next_id ~proc:"p" ~args:[] ~submitted_at:0.);
             ready := !ready @ [ (!next_id, None) ]
           | Wake woken ->
             S.wake sched woken;
             List.iter
               (fun id ->
                 if List.mem_assoc id !blocked && not (List.mem id !wakes) then
                   wakes := id :: !wakes)
               woken
           | Remove id ->
             let want =
               if List.mem_assoc id !blocked then `Blocked
               else if List.mem_assoc id !ready then `Ready
               else `Absent
             in
             if S.remove sched id <> want then
               QCheck.Test.fail_reportf "remove %d disagrees with the model" id;
             if want <> `Absent then leave id;
             blocked := List.remove_assoc id !blocked;
             ready := List.remove_assoc id !ready;
             wakes := List.filter (( <> ) id) !wakes
           | Drain script -> drain script);
          check "step")
        steps;
      S.wake sched (List.map fst !blocked);
      wakes := List.map fst !blocked;
      drain [ 1 ];
      check "final drain";
      List.for_all
        (fun id -> Hashtbl.find_opt left id = Some 1)
        (List.init !next_id (fun i -> i + 1))
      && S.length sched = 0)

(* ------------------------------------------------------------------ *)
(* No state outlives its table *)

(* Every path a table has seen is garbage once the table is: nothing about
   a lock table is kept process-wide, so one run's paths never weigh on
   the next run's heap. *)
let test_dropped_table_leaves_nothing () =
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let use_table () =
    let t = Mglock.create () in
    for i = 1 to 20_000 do
      let path = p (Printf.sprintf "/leak/h%d/vm%d" (i / 100) i) in
      acquire_ok t ~txn:i [ path, Mglock.W ];
      ignore (Mglock.release_all t ~txn:i)
    done;
    check int_c "empty after release" 0 (Mglock.lock_count t)
  in
  let before = live_words () in
  use_table ();
  let grown = live_words () - before in
  if grown > 1_000 then
    Alcotest.failf "%d words still live after the table was dropped" grown

let suite =
  [
    ("compatibility matrix", `Quick, test_compat_matrix);
    ("compatibility symmetric", `Quick, test_compat_symmetric);
    ("join lattice", `Quick, test_join_lattice);
    ("join is a least upper bound", `Quick, test_join_is_lub);
    ("intention modes", `Quick, test_intention);
    ("intention monotone", `Quick, test_intention_monotone);
    ("ancestors get intention locks", `Quick, test_ancestors_get_intention_locks);
    ("sibling writes allowed", `Quick, test_sibling_writes_allowed);
    ("write blocks descendant read", `Quick, test_write_blocks_descendant_read);
    ("read blocks ancestor write", `Quick, test_read_blocks_ancestor_write);
    ("concurrent reads", `Quick, test_concurrent_reads);
    ("all-or-nothing acquisition", `Quick, test_all_or_nothing);
    ("self upgrade", `Quick, test_self_upgrade);
    ("upgrade blocked by other reader", `Quick, test_upgrade_blocked_by_other_reader);
    ("release unblocks", `Quick, test_release_unblocks);
    ("release unknown txn", `Quick, test_release_unknown_txn);
    ("release wakes waiters", `Quick, test_release_wakes_waiters);
    ("release wakes only held nodes", `Quick, test_release_wakes_only_held_nodes);
    ("spurious wakeup re-parks", `Quick, test_spurious_wakeup_reparks);
    ("cancel wait", `Quick, test_cancel_wait);
    ("holders", `Quick, test_holders);
    ("head reservation", `Quick, test_head_reservation);
    ("reservation ends with registration", `Quick, test_reservation_ends_with_registration);
    QCheck_alcotest.to_alcotest lock_safety_prop;
    QCheck_alcotest.to_alcotest intention_coverage_prop;
    QCheck_alcotest.to_alcotest release_clears_prop;
    QCheck_alcotest.to_alcotest refused_acquire_unchanged_prop;
    QCheck_alcotest.to_alcotest sched_prop;
    QCheck_alcotest.to_alcotest sched_model_prop;
    ("dropped table leaves nothing", `Quick, test_dropped_table_leaves_nothing);
  ]

let () = Alcotest.run "mglock" [ ("mglock", suite) ]
