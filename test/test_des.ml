(* Tests for the discrete-event simulation kernel. *)

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int

let float_c = Alcotest.float 1e-9

(* Run [body] as a process in a fresh simulation and drain all events. *)
let in_sim ?(seed = 1) body =
  let sim = Des.Sim.create ~seed () in
  let p = Des.Proc.spawn ~name:"test-body" sim (fun () -> body sim) in
  ignore (Des.Sim.run sim);
  (sim, p)

let no_failures sim =
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.pass))
    "no process failures" [] (Des.Sim.failures sim)

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_order () =
  let h = Des.Heap.create ~cmp:Int.compare in
  List.iter (Des.Heap.push h) [ 5; 1; 4; 1; 3; 9; 2 ];
  let out = List.init 7 (fun _ -> Des.Heap.pop h) in
  check (Alcotest.list int_c) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ] out

and test_heap_empty () =
  let h = Des.Heap.create ~cmp:Int.compare in
  check bool_c "empty" true (Des.Heap.is_empty h);
  check (Alcotest.option int_c) "peek none" None (Des.Heap.peek h);
  Alcotest.check_raises "pop empty" (Invalid_argument "Heap.pop: empty heap")
    (fun () -> ignore (Des.Heap.pop h))

let heap_sort_prop =
  QCheck.Test.make ~name:"heap sorts arbitrary int lists" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Des.Heap.create ~cmp:Int.compare in
      List.iter (Des.Heap.push h) xs;
      let out = List.init (List.length xs) (fun _ -> Des.Heap.pop h) in
      out = List.sort Int.compare xs)

(* ------------------------------------------------------------------ *)
(* Sim *)

let test_sim_fifo_same_time () =
  let sim = Des.Sim.create () in
  let log = ref [] in
  let push x () = log := x :: !log in
  ignore (Des.Sim.at sim 1.0 (push "a"));
  ignore (Des.Sim.at sim 1.0 (push "b"));
  ignore (Des.Sim.at sim 0.5 (push "c"));
  ignore (Des.Sim.run sim);
  check (Alcotest.list Alcotest.string) "order" [ "c"; "a"; "b" ]
    (List.rev !log)

let test_sim_cancel () =
  let sim = Des.Sim.create () in
  let fired = ref false in
  let ev = Des.Sim.after sim 1.0 (fun () -> fired := true) in
  Des.Sim.cancel ev;
  ignore (Des.Sim.run sim);
  check bool_c "cancelled event did not fire" false !fired

(* A cancelled event waits in the heap until its time, but without its
   closure: what the closure captured is collectable at once, and the event
   still neither fires nor advances the clock. *)
let test_sim_cancel_drops_closure () =
  let sim = Des.Sim.create () in
  let fired = ref false in
  let captured = Weak.create 1 in
  let schedule () =
    let payload = Bytes.make 64 'x' in
    Weak.set captured 0 (Some payload);
    Des.Sim.after sim 5.0 (fun () ->
        fired := true;
        ignore (Bytes.length payload))
  in
  let ev = (Sys.opaque_identity schedule) () in
  ignore (Des.Sim.after sim 1.0 (fun () -> ()));
  Des.Sim.cancel ev;
  Gc.full_major ();
  check bool_c "closure collected" false (Weak.check captured 0);
  ignore (Des.Sim.run sim);
  check bool_c "cancelled event did not fire" false !fired;
  check float_c "clock stops at the live event" 1.0 (Des.Sim.now sim)

let test_sim_past_raises () =
  let sim = Des.Sim.create () in
  ignore (Des.Sim.after sim 2.0 (fun () -> ()));
  ignore (Des.Sim.run sim);
  check float_c "clock" 2.0 (Des.Sim.now sim);
  match Des.Sim.at sim 1.0 (fun () -> ()) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_sim_run_until () =
  let sim = Des.Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Des.Sim.at sim (float_of_int i) (fun () -> incr count))
  done;
  ignore (Des.Sim.run ~until:5.5 sim);
  check int_c "only first five fired" 5 !count;
  check float_c "clock parked at limit" 5.5 (Des.Sim.now sim);
  ignore (Des.Sim.run sim);
  check int_c "rest fired" 10 !count

(* [stop] is checked after every event: the run halts on the event that
   first makes it hold, without parking the clock at [until]; [until]
   still bounds a predicate that never holds in time. *)
let test_sim_run_stop () =
  let sim = Des.Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Des.Sim.at sim (float_of_int i) (fun () -> incr count))
  done;
  let n = Des.Sim.run ~until:9.5 ~stop:(fun () -> !count >= 3) sim in
  check int_c "halted on the third event" 3 !count;
  check int_c "three executed" 3 n;
  check float_c "clock at that event" 3.0 (Des.Sim.now sim);
  ignore (Des.Sim.run ~until:5.5 ~stop:(fun () -> !count >= 8) sim);
  check int_c "until still bounds" 5 !count;
  check float_c "clock parked at limit" 5.5 (Des.Sim.now sim)

(* [Proc.run] stops once the body has returned and [idle] holds, even
   though a heartbeat process would run forever. *)
let test_proc_run_stops_when_idle () =
  let sim = Des.Sim.create () in
  ignore
    (Des.Proc.spawn ~name:"heartbeat" sim (fun () ->
         while true do
           Des.Proc.sleep 1.0
         done));
  let busy = ref true in
  ignore (Des.Sim.at sim 4.2 (fun () -> busy := false));
  let stopped =
    Des.Proc.run ~idle:(fun () -> not !busy) sim (fun () -> Des.Proc.sleep 2.)
  in
  check bool_c "stopped idle" true stopped;
  check float_c "at the event that went idle" 4.2 (Des.Sim.now sim);
  let stopped = Des.Proc.run ~until:10. sim (fun () -> Des.Proc.sleep 60.) in
  check bool_c "body still running at the horizon" false stopped;
  check float_c "clock at the horizon" 10. (Des.Sim.now sim)

(* ------------------------------------------------------------------ *)
(* Proc *)

let test_proc_sleep_advances_time () =
  let seen = ref 0. in
  let sim, p =
    in_sim (fun _sim ->
        Des.Proc.sleep 3.5;
        seen := Des.Proc.now ())
  in
  no_failures sim;
  check float_c "time after sleep" 3.5 !seen;
  check bool_c "finished" false (Des.Proc.alive p)

let test_proc_kill_suspended () =
  let cleaned = ref false in
  let sim = Des.Sim.create () in
  let p =
    Des.Proc.spawn ~name:"sleeper" sim (fun () ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () -> Des.Proc.sleep 100.))
  in
  ignore (Des.Proc.spawn sim (fun () ->
      Des.Proc.sleep 1.;
      Des.Proc.kill p));
  ignore (Des.Sim.run sim);
  check bool_c "finalizer ran" true !cleaned;
  check bool_c "dead" false (Des.Proc.alive p);
  (match Des.Proc.result p with
   | Some (Error Des.Proc.Killed) -> ()
   | Some (Ok ()) -> Alcotest.fail "expected Killed, got Ok"
   | Some (Error e) -> Alcotest.fail ("expected Killed, got " ^ Printexc.to_string e)
   | None -> Alcotest.fail "not finished");
  check float_c "killed promptly, not after 100 s" 1.0 (Des.Sim.now sim);
  no_failures sim

let test_proc_kill_before_start () =
  let ran = ref false in
  let sim = Des.Sim.create () in
  let p = Des.Proc.spawn sim (fun () -> ran := true) in
  Des.Proc.kill p;
  ignore (Des.Sim.run sim);
  check bool_c "body never ran" false !ran;
  match Des.Proc.result p with
  | Some (Error Des.Proc.Killed) -> ()
  | _ -> Alcotest.fail "expected Killed"

let test_proc_failure_recorded () =
  let sim = Des.Sim.create () in
  ignore (Des.Proc.spawn ~name:"crasher" sim (fun () -> failwith "boom"));
  ignore (Des.Sim.run sim);
  match Des.Sim.failures sim with
  | [ ("crasher", Failure msg) ] when String.equal msg "boom" -> ()
  | _ -> Alcotest.fail "expected one recorded failure"

let test_proc_await () =
  let order = ref [] in
  let sim = Des.Sim.create () in
  let child =
    Des.Proc.spawn ~name:"child" sim (fun () ->
        Des.Proc.sleep 2.;
        order := "child" :: !order)
  in
  ignore
    (Des.Proc.spawn ~name:"parent" sim (fun () ->
         match Des.Proc.await child with
         | Ok () -> order := "parent" :: !order
         | Error _ -> ()));
  ignore (Des.Sim.run sim);
  check (Alcotest.list Alcotest.string) "child before parent"
    [ "child"; "parent" ] (List.rev !order);
  no_failures sim

let test_proc_await_finished () =
  let sim = Des.Sim.create () in
  let child = Des.Proc.spawn sim (fun () -> ()) in
  ignore
    (Des.Proc.spawn sim (fun () ->
         Des.Proc.sleep 5.;
         match Des.Proc.await child with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "await on finished proc"));
  ignore (Des.Sim.run sim);
  no_failures sim

(* ------------------------------------------------------------------ *)
(* Channel *)

let test_channel_fifo () =
  let out = ref [] in
  let sim, _ =
    in_sim (fun sim ->
        let ch = Des.Channel.create () in
        List.iter (Des.Channel.send ch) [ 1; 2; 3 ];
        ignore sim;
        for _ = 1 to 3 do
          out := Des.Channel.recv ch :: !out
        done)
  in
  no_failures sim;
  check (Alcotest.list int_c) "fifo" [ 1; 2; 3 ] (List.rev !out)

let test_channel_blocking_recv () =
  let sim = Des.Sim.create () in
  let ch = Des.Channel.create () in
  let got_at = ref 0. in
  ignore
    (Des.Proc.spawn sim (fun () ->
         let v = Des.Channel.recv ch in
         check int_c "value" 7 v;
         got_at := Des.Proc.now ()));
  ignore
    (Des.Proc.spawn sim (fun () ->
         Des.Proc.sleep 4.;
         Des.Channel.send ch 7));
  ignore (Des.Sim.run sim);
  check float_c "received when sent" 4.0 !got_at;
  no_failures sim

let test_channel_waiters_fifo () =
  let sim = Des.Sim.create () in
  let ch = Des.Channel.create () in
  let out = ref [] in
  let reader tag delay =
    ignore
      (Des.Proc.spawn sim (fun () ->
           Des.Proc.sleep delay;
           let v = Des.Channel.recv ch in
           out := (tag, v) :: !out))
  in
  reader "first" 0.1;
  reader "second" 0.2;
  ignore
    (Des.Proc.spawn sim (fun () ->
         Des.Proc.sleep 1.;
         Des.Channel.send ch 10;
         Des.Channel.send ch 20));
  ignore (Des.Sim.run sim);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string int_c))
    "oldest waiter first"
    [ ("first", 10); ("second", 20) ]
    (List.rev !out);
  no_failures sim

let test_channel_timeout () =
  let sim = Des.Sim.create () in
  let ch = Des.Channel.create () in
  let results = ref [] in
  ignore
    (Des.Proc.spawn sim (fun () ->
         let r = Des.Channel.recv_timeout ch ~timeout:2. in
         results := ("timeout", r, Des.Proc.now ()) :: !results;
         let r2 = Des.Channel.recv_timeout ch ~timeout:10. in
         results := ("value", r2, Des.Proc.now ()) :: !results));
  ignore
    (Des.Proc.spawn sim (fun () ->
         Des.Proc.sleep 5.;
         Des.Channel.send ch 42));
  ignore (Des.Sim.run sim);
  (match List.rev !results with
   | [ ("timeout", None, t1); ("value", Some 42, t2) ] ->
     check float_c "timed out at 2" 2. t1;
     check float_c "value at 5" 5. t2
   | _ -> Alcotest.fail "unexpected sequence");
  no_failures sim

let test_channel_killed_waiter_does_not_steal () =
  let sim = Des.Sim.create () in
  let ch = Des.Channel.create () in
  let victim =
    Des.Proc.spawn ~name:"victim" sim (fun () ->
        ignore (Des.Channel.recv ch);
        Alcotest.fail "victim should never receive")
  in
  let got = ref None in
  ignore
    (Des.Proc.spawn ~name:"survivor" sim (fun () ->
         Des.Proc.sleep 1.;
         got := Some (Des.Channel.recv ch)));
  ignore
    (Des.Proc.spawn sim (fun () ->
         Des.Proc.sleep 2.;
         Des.Proc.kill victim;
         Des.Channel.send ch 99));
  ignore (Des.Sim.run sim);
  check (Alcotest.option int_c) "survivor got the message" (Some 99) !got;
  no_failures sim

(* ------------------------------------------------------------------ *)
(* Station *)

let test_station_fifo_serial () =
  let sim = Des.Sim.create () in
  let st = Des.Station.create sim in
  let done_at = ref [] in
  let client tag arrive service =
    ignore
      (Des.Proc.spawn sim (fun () ->
           Des.Proc.sleep arrive;
           Des.Station.request st ~service;
           done_at := (tag, Des.Proc.now ()) :: !done_at))
  in
  client "a" 0. 2.;
  client "b" 0.5 1.;
  (* b arrives while a is in service: waits until 2.0, done at 3.0 *)
  ignore (Des.Sim.run sim);
  (match List.rev !done_at with
   | [ ("a", ta); ("b", tb) ] ->
     check float_c "a done" 2.0 ta;
     check float_c "b done (queued)" 3.0 tb
   | _ -> Alcotest.fail "unexpected completion order");
  check float_c "busy time" 3.0 (Des.Station.busy_time st);
  check int_c "completed" 2 (Des.Station.completed st);
  no_failures sim

let test_station_negative_service () =
  let sim = Des.Sim.create () in
  let st = Des.Station.create sim in
  ignore
    (Des.Proc.spawn sim (fun () ->
         match Des.Station.request st ~service:(-1.) with
         | () -> Alcotest.fail "expected Invalid_argument"
         | exception Invalid_argument _ -> ()));
  ignore (Des.Sim.run sim);
  no_failures sim

(* ------------------------------------------------------------------ *)
(* Net *)

let constant_latency d ~src:_ ~dst:_ ~rng:_ = d

let test_net_delivery () =
  let sim = Des.Sim.create () in
  let net = Des.Net.create ~latency:(constant_latency 0.01) sim ~nodes:3 in
  let got = ref None in
  ignore
    (Des.Proc.spawn sim (fun () ->
         let src, msg = Des.Channel.recv (Des.Net.inbox net 1) in
         got := Some (src, msg, Des.Proc.now ())));
  Des.Net.send net ~src:0 ~dst:1 "hello";
  ignore (Des.Sim.run sim);
  (match !got with
   | Some (0, "hello", t) -> check float_c "latency applied" 0.01 t
   | _ -> Alcotest.fail "message not delivered");
  check int_c "delivered count" 1 (Des.Net.delivered net);
  no_failures sim

let test_net_crash_blocks_delivery () =
  let sim = Des.Sim.create () in
  let net = Des.Net.create ~latency:(constant_latency 0.01) sim ~nodes:2 in
  Des.Net.crash net 1;
  Des.Net.send net ~src:0 ~dst:1 "lost";
  ignore (Des.Sim.run sim);
  check int_c "nothing delivered" 0 (Des.Net.delivered net);
  check int_c "dropped" 1 (Des.Net.dropped net);
  Des.Net.restart net 1;
  Des.Net.send net ~src:0 ~dst:1 "ok";
  ignore (Des.Sim.run sim);
  check int_c "delivered after restart" 1 (Des.Net.delivered net)

let test_net_crash_drops_in_flight () =
  let sim = Des.Sim.create () in
  let net = Des.Net.create ~latency:(constant_latency 1.0) sim ~nodes:2 in
  Des.Net.send net ~src:0 ~dst:1 "in-flight";
  ignore (Des.Sim.run ~until:0.5 sim);
  Des.Net.crash net 1;
  ignore (Des.Sim.run sim);
  check int_c "in-flight message dropped" 0 (Des.Net.delivered net)

let test_net_partition_and_heal () =
  let sim = Des.Sim.create () in
  let net = Des.Net.create ~latency:(constant_latency 0.01) sim ~nodes:4 in
  Des.Net.partition net [ 0; 1 ] [ 2; 3 ];
  Des.Net.send net ~src:0 ~dst:2 "cut";
  Des.Net.send net ~src:0 ~dst:1 "same-side";
  ignore (Des.Sim.run sim);
  check int_c "only same-side delivered" 1 (Des.Net.delivered net);
  Des.Net.heal net;
  Des.Net.send net ~src:0 ~dst:2 "healed";
  ignore (Des.Sim.run sim);
  check int_c "after heal" 2 (Des.Net.delivered net)

let test_net_drop_rate () =
  let sim = Des.Sim.create () in
  let net =
    Des.Net.create ~latency:(constant_latency 0.01) ~drop_rate:1.0 sim ~nodes:2
  in
  for _ = 1 to 10 do
    Des.Net.send net ~src:0 ~dst:1 "x"
  done;
  ignore (Des.Sim.run sim);
  check int_c "all dropped" 10 (Des.Net.dropped net)

(* ------------------------------------------------------------------ *)
(* Dist *)

let test_dist_bounds () =
  let st = Random.State.make [| 7 |] in
  for _ = 1 to 1000 do
    let x = Des.Dist.uniform st ~lo:2. ~hi:5. in
    if x < 2. || x >= 5. then Alcotest.fail "uniform out of bounds";
    let e = Des.Dist.exponential st ~mean:3. in
    if e < 0. then Alcotest.fail "exponential negative"
  done

let test_dist_weighted_index () =
  let st = Random.State.make [| 7 |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 3000 do
    let i = Des.Dist.weighted_index st [| 0.; 1.; 3. |] in
    counts.(i) <- counts.(i) + 1
  done;
  check int_c "zero weight never picked" 0 counts.(0);
  check bool_c "heavier weight picked more" true (counts.(2) > counts.(1))

let test_dist_determinism () =
  let draw seed =
    let st = Random.State.make [| seed |] in
    List.init 20 (fun _ -> Des.Dist.uniform st ~lo:0. ~hi:1.)
  in
  check (Alcotest.list float_c) "same seed, same stream" (draw 3) (draw 3)

let test_dist_errors () =
  let st = Random.State.make [| 1 |] in
  Alcotest.check_raises "choice []"
    (Invalid_argument "Dist.choice: empty list") (fun () ->
      ignore (Des.Dist.choice st []));
  (match Des.Dist.weighted_index st [| 0.; 0. |] with
   | _ -> Alcotest.fail "expected Invalid_argument"
   | exception Invalid_argument _ -> ());
  match Des.Dist.int st 0 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* Determinism of a whole simulation: same seed -> identical event counts. *)
let test_sim_determinism () =
  let run seed =
    let sim = Des.Sim.create ~seed () in
    let net = Des.Net.create sim ~nodes:3 ~drop_rate:0.2 in
    let received = ref [] in
    for i = 0 to 2 do
      ignore
        (Des.Proc.spawn sim (fun () ->
             for _ = 1 to 20 do
               match
                 Des.Channel.recv_timeout (Des.Net.inbox net i) ~timeout:0.5
               with
               | Some (src, msg) -> received := (i, src, msg) :: !received
               | None -> ()
             done))
    done;
    ignore
      (Des.Proc.spawn sim (fun () ->
           for k = 1 to 30 do
             Des.Proc.sleep 0.05;
             Des.Net.send net ~src:(k mod 3) ~dst:((k + 1) mod 3) k
           done));
    ignore (Des.Sim.run sim);
    (!received, Des.Sim.executed sim)
  in
  let a = run 11 and b = run 11 and c = run 12 in
  check bool_c "same seed identical" true (a = b);
  check bool_c "different seed differs" true (a <> c)


(* ------------------------------------------------------------------ *)
(* Additional kernel coverage *)

let test_station_post_fire_and_forget () =
  let sim = Des.Sim.create () in
  let st = Des.Station.create sim in
  Des.Station.post st ~service:2.;
  Des.Station.post st ~service:3.;
  check int_c "queued" 2 (Des.Station.queue_length st);
  ignore (Des.Sim.run sim);
  check float_c "busy" 5. (Des.Station.busy_time st);
  check int_c "completed" 2 (Des.Station.completed st);
  check int_c "drained" 0 (Des.Station.queue_length st)

let test_net_add_node () =
  let sim = Des.Sim.create () in
  let net = Des.Net.create ~latency:(constant_latency 0.01) sim ~nodes:1 in
  let added = List.init 9 (fun _ -> Des.Net.add_node net) in
  check (Alcotest.list int_c) "ids in creation order"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ] added;
  check int_c "node count" 10 (Des.Net.node_count net);
  (* Ports survive the growth: a crash before it still holds after. *)
  Des.Net.crash net 0;
  ignore (Des.Net.add_node net);
  Des.Net.send net ~src:9 ~dst:0 "to the crashed node";
  List.iter (fun dst -> Des.Net.send net ~src:0 ~dst "from it") [ 1; 10 ];
  Des.Net.send net ~src:1 ~dst:10 "newest";
  ignore (Des.Sim.run sim);
  check int_c "one delivery" 1 (Des.Net.delivered net);
  check int_c "three dropped" 3 (Des.Net.dropped net);
  check int_c "the newest node got it" 1
    (Des.Channel.length (Des.Net.inbox net 10));
  (* Spare capacity past the last node is not a node. *)
  match Des.Net.send net ~src:0 ~dst:11 "nobody" with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_proc_identity () =
  let sim = Des.Sim.create () in
  let seen = ref "" in
  let p =
    Des.Proc.spawn ~name:"identity" sim (fun () ->
        let self = Des.Proc.self () in
        seen := Des.Proc.name self)
  in
  ignore (Des.Sim.run sim);
  check Alcotest.string "self name" "identity" !seen;
  check Alcotest.string "handle name" "identity" (Des.Proc.name p)

let test_proc_kill_is_idempotent () =
  let sim = Des.Sim.create () in
  let p = Des.Proc.spawn sim (fun () -> Des.Proc.sleep 10.) in
  ignore
    (Des.Proc.spawn sim (fun () ->
         Des.Proc.sleep 1.;
         Des.Proc.kill p;
         Des.Proc.kill p;
         Des.Proc.kill p));
  ignore (Des.Sim.run sim);
  match Des.Proc.result p with
  | Some (Error Des.Proc.Killed) -> ()
  | _ -> Alcotest.fail "expected Killed exactly once"

let test_channel_try_recv () =
  let ch = Des.Channel.create () in
  check (Alcotest.option int_c) "empty" None (Des.Channel.try_recv ch);
  Des.Channel.send ch 5;
  check (Alcotest.option int_c) "value" (Some 5) (Des.Channel.try_recv ch);
  check (Alcotest.option int_c) "drained" None (Des.Channel.try_recv ch)

let test_sim_event_counters () =
  let sim = Des.Sim.create () in
  ignore (Des.Sim.after sim 1. (fun () -> ()));
  ignore (Des.Sim.after sim 2. (fun () -> ()));
  check int_c "pending before" 2 (Des.Sim.pending sim);
  check int_c "executed before" 0 (Des.Sim.executed sim);
  ignore (Des.Sim.run sim);
  check int_c "pending after" 0 (Des.Sim.pending sim);
  check int_c "executed after" 2 (Des.Sim.executed sim)

let suite =
  [
    ("heap: pop order", `Quick, test_heap_order);
    ("heap: empty", `Quick, test_heap_empty);
    QCheck_alcotest.to_alcotest heap_sort_prop;
    ("sim: same-time FIFO", `Quick, test_sim_fifo_same_time);
    ("sim: cancel", `Quick, test_sim_cancel);
    ("sim: cancel drops the closure", `Quick, test_sim_cancel_drops_closure);
    ("sim: scheduling in the past", `Quick, test_sim_past_raises);
    ("sim: run until", `Quick, test_sim_run_until);
    ("sim: run stop predicate", `Quick, test_sim_run_stop);
    ("proc: run stops when idle", `Quick, test_proc_run_stops_when_idle);
    ("sim: determinism", `Quick, test_sim_determinism);
    ("proc: sleep advances time", `Quick, test_proc_sleep_advances_time);
    ("proc: kill suspended", `Quick, test_proc_kill_suspended);
    ("proc: kill before start", `Quick, test_proc_kill_before_start);
    ("proc: failure recorded", `Quick, test_proc_failure_recorded);
    ("proc: await", `Quick, test_proc_await);
    ("proc: await finished", `Quick, test_proc_await_finished);
    ("channel: fifo", `Quick, test_channel_fifo);
    ("channel: blocking recv", `Quick, test_channel_blocking_recv);
    ("channel: waiters fifo", `Quick, test_channel_waiters_fifo);
    ("channel: timeout", `Quick, test_channel_timeout);
    ( "channel: killed waiter does not steal",
      `Quick,
      test_channel_killed_waiter_does_not_steal );
    ("station: fifo serial service", `Quick, test_station_fifo_serial);
    ("station: negative service", `Quick, test_station_negative_service);
    ("net: delivery", `Quick, test_net_delivery);
    ("net: crash blocks delivery", `Quick, test_net_crash_blocks_delivery);
    ("net: crash drops in-flight", `Quick, test_net_crash_drops_in_flight);
    ("net: partition and heal", `Quick, test_net_partition_and_heal);
    ("net: drop rate", `Quick, test_net_drop_rate);
    ("dist: bounds", `Quick, test_dist_bounds);
    ("dist: weighted index", `Quick, test_dist_weighted_index);
    ("dist: determinism", `Quick, test_dist_determinism);
    ("dist: errors", `Quick, test_dist_errors);
    ("station: post fire-and-forget", `Quick, test_station_post_fire_and_forget);
    ("net: nodes added at runtime", `Quick, test_net_add_node);
    ("proc: identity", `Quick, test_proc_identity);
    ("proc: kill idempotent", `Quick, test_proc_kill_is_idempotent);
    ("channel: try_recv", `Quick, test_channel_try_recv);
    ("sim: event counters", `Quick, test_sim_event_counters);
  ]

let () = Alcotest.run "des" [ ("des", suite) ]
