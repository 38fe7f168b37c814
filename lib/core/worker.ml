let log_src = Logs.Src.create "tropic.worker" ~doc:"TROPIC worker"

module Log = (val Logs.src_log log_src : Logs.LOG)

type mode = Full | Logical_only of float

type t = {
  wname : string;
  rank : int;
  client : Coord.Client.t;
  ns : string;
  mode : mode;
  devices : Physical.device_lookup;
  sim : Des.Sim.t;
  retry : Physical.retry_policy;
  trace : Trace.t;
  st : Stats.stats;
  mutable stopped : bool;
  mutable procs : Des.Proc.t list;
}

let create ?(retry = Physical.no_retry) ?(trace = Trace.off)
    ?(ns = Proto.default_ns) ?(rank = 0) ~stats ~name ~client ~mode ~devices
    ~sim () =
  {
    wname = name;
    rank;
    client;
    ns;
    mode;
    devices;
    sim;
    retry;
    trace;
    st = stats;
    stopped = false;
    procs = [];
  }

let name w = w.wname

(* A signal is part of the record (paper §4): a KILL is the terminal
   record itself (or its absence, once pruned), a TERM the flag on a
   Started one.  A record another incarnation of this replay already drove
   to a terminal state reads as a KILL too, so the replay neither goes on
   nor unwinds its effects. *)
let check_signal w txn_id () =
  match Coord.Client.get w.client (Txn.record_key_ns w.ns txn_id) with
  | None -> `Kill
  | Some (value, _) ->
    (match Txn.of_string value with
     | Ok { Txn.state = Txn.Started; termed = true; _ } -> `Term
     | Ok { Txn.state = Txn.Started; _ } | Error _ -> `Go
     | Ok _ -> `Kill)

let execute_txn w txn_id =
  match Coord.Client.get w.client (Txn.record_key_ns w.ns txn_id) with
  | None ->
    (* A stale item of a txn that ended and was checkpointed away. *)
    Log.info (fun m -> m "%s: no record for txn %d" w.wname txn_id);
    None
  | Some (value, _) ->
    (match Txn.of_string value with
     | Error reason ->
       Log.err (fun m -> m "%s: corrupt record for txn %d: %s" w.wname txn_id reason);
       None
     | Ok txn ->
       if txn.Txn.state <> Txn.Started then None
       else begin
         let counters = Physical.fresh_counters () in
         let t0 = Des.Sim.now w.sim in
         (* Resume cursor: a previous incarnation of this replay (lost to
            a worker or leader crash) persisted the index of the last
            action it completed.  Re-running those actions is not safe —
            creates are not idempotent, the effects are already on the
            devices — so the replay skips past them while keeping them in
            the undo prefix. *)
         let pkey = Proto.progress_key_ns w.ns txn_id in
         let skip =
           match w.mode with
           | Logical_only _ -> 0
           | Full ->
             (* Log indices are 1-based, so the last completed index IS
                the number of completed records to skip. *)
             (match Coord.Client.get w.client pkey with
              | Some (s, _) ->
                (match int_of_string_opt s with
                 | Some i -> max 0 i
                 | None -> 0)
              | None -> 0)
         in
         let on_progress i =
           if i <= 0 then ignore (Coord.Client.delete w.client ~key:pkey ())
           else
             ignore
               (Coord.Client.write w.client ~key:pkey
                  ~value:(string_of_int i) ())
         in
         (* Each execution gets a fresh tracer lane: after a fail-over
            the same transaction can be replayed by two workers at once,
            and lanes keep their span trees from interleaving. *)
         let lane = Trace.fresh_lane w.trace in
         let span =
           Trace.begin_span w.trace ~txn:txn_id ~lane ~cat:"physical"
             ~name:"replay"
             ~attrs:
               ([ ("worker", w.wname);
                  ("actions", string_of_int (List.length txn.Txn.log));
                  ( "mode",
                    match w.mode with
                    | Full -> "full"
                    | Logical_only _ -> "logical" ) ]
               @ if skip > 0 then [ ("resume", string_of_int skip) ] else [])
             ()
         in
         (* Default outcome covers a kill mid-replay: the span is closed
            on the unwind (Fun.protect) with outcome "interrupted". *)
         let outcome_label = ref "interrupted" in
         let close_span () =
           Trace.end_span w.trace ~attrs:[ ("outcome", !outcome_label) ] span
         in
         let outcome =
           Fun.protect ~finally:close_span (fun () ->
               let o =
                 match w.mode with
                 | Logical_only delay ->
                   if delay > 0. then Des.Proc.sleep delay;
                   Proto.Phy_committed
                 | Full ->
                   Physical.execute ~devices:w.devices ~sim:w.sim ~counters
                     ~tracer:(w.trace, txn_id, lane)
                     ~check_signal:(check_signal w txn_id) ~policy:w.retry
                     ~skip ~on_progress txn.Txn.log
               in
               (outcome_label :=
                  match o with
                  | Proto.Phy_committed -> "committed"
                  | Proto.Phy_aborted _ -> "aborted"
                  | Proto.Phy_failed _ -> "failed");
               o)
         in
         let exec =
           {
             Proto.retries = counters.Physical.retries;
             transient_failures = counters.Physical.transient_failures;
             timeouts = counters.Physical.timeouts;
             replay_s = Des.Sim.now w.sim -. t0;
             undo_s = counters.Physical.undo_s;
           }
         in
         Some (outcome, exec)
       end)

(* Take protocol: one multi deletes the phyQ item and creates the
   ephemeral executing marker, so a recovering controller never re-queues
   a transaction some worker is executing.  The delete is versioned (an
   item is version 1 until taken): a lost take race aborts the whole
   multi, leaving nothing to withdraw.  A marker that already exists
   belongs to another incarnation replaying the same transaction (a
   re-offer raced it); aborting on it would leave the item at the queue
   head for ever, so the take goes ahead with the item delete alone and no
   claim of its own — the replay dedups through the resume cursor and the
   record's state, as any concurrent replay does.  Returns whether the
   item was taken, and whether the marker is ours. *)
let take w ~key ~marker =
  let take_item = Coord.Types.Op_delete { key; expect_version = Some 1 } in
  let claim =
    Coord.Types.Op_create
      { key = marker; value = w.wname; ephemeral = true; sequential = false }
  in
  match Coord.Client.multi w.client [ take_item; claim ] with
  | Ok _ -> Some true
  | Error Coord.Types.Key_exists ->
    (match Coord.Client.multi w.client [ take_item ] with
     | Ok _ -> Some false
     | Error _ -> None)
  | Error _ -> None

(* Run the item just taken ([claimed]: the executing marker is ours) and
   finish in one multi: the result, the progress cursor's delete and our
   marker's — a crash leaves either all of them or none.  The finish is
   pipelined: the worker reads its next candidates while it is in flight,
   and the session's ordered admission keeps the next take behind it. *)
let run_taken w txn_id ~marker ~claimed =
  let delete key = Coord.Types.Op_delete { key; expect_version = None } in
  let report =
    match execute_txn w txn_id with
    | Some (outcome, exec) ->
      [ Coord.Recipes.enqueue_op ~queue:(Proto.input_queue_ns w.ns)
          (Proto.input_to_string (Proto.Result { txn_id; outcome; exec }));
        delete (Proto.progress_key_ns w.ns txn_id) ]
    | None -> []
  in
  Coord.Client.multi_async w.client
    (report @ if claimed then [ delete marker ] else [])
    ~on_done:ignore

(* Herd-free take: worker [rank] tries the [rank]-th oldest item first and
   then the older ones, moving to the next candidate on a lost race rather
   than re-reading the head, so W workers spread over the W oldest items and
   the oldest is always someone's last resort.  Returns once one item was
   run (or junk dropped), or every candidate was lost. *)
let rec take_first w = function
  | [] -> ()
  | (key, payload) :: older ->
    (match int_of_string_opt payload with
     | None -> ignore (Coord.Client.delete w.client ~key ())
     | Some txn_id ->
       let marker = Proto.executing_key_ns w.ns txn_id in
       (match take w ~key ~marker with
        | Some claimed -> run_taken w txn_id ~marker ~claimed
        | None ->
          w.st.take_conflicts <- w.st.take_conflicts + 1;
          take_first w older))

let run w () =
  let queue = Proto.phy_queue_ns w.ns in
  let candidates () =
    List.rev (Coord.Client.children_values w.client queue (w.rank + 1))
  in
  while not w.stopped do
    match candidates () with
    | _ :: _ as items -> take_first w items
    | [] ->
      Coord.Client.watch_children w.client queue;
      (match candidates () with
       | _ :: _ as items -> take_first w items
       | [] -> ignore (Coord.Client.await_change w.client ~timeout:1.0))
  done

let start w =
  let p = Des.Proc.spawn ~name:w.wname w.sim (run w) in
  w.procs <- [ p ]

let crash w =
  w.stopped <- true;
  List.iter Des.Proc.kill w.procs;
  w.procs <- [];
  Coord.Client.close w.client
