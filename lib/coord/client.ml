let log_src = Logs.Src.create "coord.client" ~doc:"coordination client"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* One replicated command of the session, from enqueue until its result.
   [cmd] is built when it first leaves (see [multi_async_lazy]); [wire]
   is the request id of its latest send (0: not sent this round),
   [sent_to] the node it went to; [admitted] says that send's receipt
   arrived.  A [sync] call holds back every later command until its
   result is in, so the store's last-result cache (see {!Store.apply})
   can only ever answer its retry with its own result. *)
type call = {
  cmd : Types.cmd Lazy.t;
  sync : bool;
  finish : (Types.op_result, exn) result -> unit;
  mutable wire : int;
  mutable sent_to : int;
  mutable admitted : bool;
  mutable timer : Des.Sim.event option;
}

type t = {
  session : int;
  net : Types.msg Des.Net.t;
  mutable known : int list;
      (* last known membership, sorted; refreshed from Not_leader replies
         so leader search follows config changes, not boot-time ids *)
  config : Types.config;
  session_timeout : float;
  mutable leader_hint : int;
  mutable next_req_id : int;
  mutable cmd_seq : int;
  pending : (int, Types.response -> unit) Hashtbl.t;
      (* wire request id -> handler; a handler removes its own entry *)
  mutable calls : call list; (* unanswered commands, oldest first *)
  mutable backing_off : bool; (* a resend round waits out its back-off *)
  event_channel : Types.watch_event Des.Channel.t;
  mutable procs : Des.Proc.t list;
  mutable is_closed : bool;
}

let session_id c = c.session
let events c = c.event_channel
let closed c = c.is_closed
let sim c = Des.Net.sim c.net

(* ------------------------------------------------------------------ *)
(* Request/response plumbing *)

let fresh_req_id c =
  c.next_req_id <- c.next_req_id + 1;
  c.next_req_id

let send_request c req_id request =
  Des.Net.send c.net ~src:c.session ~dst:c.leader_hint
    (Types.Client_req { req_id; session_timeout = c.session_timeout; request })

(* Wait for the response to [req_id]; [None] on timeout. *)
let wait_response c req_id =
  Des.Proc.suspend (fun _p resume ->
      let timer = ref None in
      let cancel_timer () =
        match !timer with None -> () | Some ev -> Des.Sim.cancel ev
      in
      Hashtbl.replace c.pending req_id (fun response ->
          Hashtbl.remove c.pending req_id;
          cancel_timer ();
          resume (Ok (Some response)));
      timer :=
        Some
          (Des.Sim.after (sim c) c.config.Types.request_timeout (fun () ->
               if Hashtbl.mem c.pending req_id then begin
                 Hashtbl.remove c.pending req_id;
                 resume (Ok None)
               end));
      fun () ->
        Hashtbl.remove c.pending req_id;
        cancel_timer ())

(* Cycle through the last known membership (not a boot-time id range:
   replicas added later must be probed, removed ones skipped). *)
let rotate_leader c =
  match c.known with
  | [] -> ()
  | members ->
    let rec next = function
      | [] -> List.hd members
      | m :: rest -> if m > c.leader_hint then m else next rest
    in
    c.leader_hint <- next members

(* Follow a [Not_leader] reply; [true] when there is no better hint to try
   at once, so the caller should back off before resending. *)
let follow_not_leader c ~hint ~members =
  if members <> [] then c.known <- members;
  match hint with
  | Some leader when leader <> c.leader_hint && List.mem leader c.known ->
    c.leader_hint <- leader;
    false
  | Some _ | None ->
    rotate_leader c;
    true

let protocol_error what response =
  failwith
    (Printf.sprintf "Coord.Client: unexpected response to %s (%s)" what
       (match response with
        | Types.Pong -> "pong"
        | Types.Admitted -> "admitted"
        | Types.Result _ -> "result"
        | Types.Query_result _ -> "query-result"
        | Types.Not_leader _ -> "not-leader"))

(* ------------------------------------------------------------------ *)
(* Replicated commands: ordered admission.

   Commands leave in request order, each only once every earlier
   unanswered command holds a receipt from the node it goes to (and no
   earlier sync call is still unanswered), so that node admits them in
   that order however [Des.Net] reorders messages in flight.  A timeout or
   [Not_leader] on any of them starts a new round: every unanswered
   command is resent, oldest first, again one receipt at a time.  So does
   a leader hint moved by anything else (a query or ping in [rpc]): a
   receipt from the old node says nothing about the new one's log.  The
   store's per-session dedup keeps the resends exactly-once. *)

let disarm c call =
  Option.iter Des.Sim.cancel call.timer;
  call.timer <- None;
  Hashtbl.remove c.pending call.wire;
  call.wire <- 0;
  call.admitted <- false

let rec pump c =
  let rec next = function
    | [] -> ()
    | call :: later ->
      if call.wire = 0 then send_call c call
      else if call.sent_to <> c.leader_hint then resend_all c ~back_off:false
      else if call.admitted && not call.sync then next later
  in
  if not (c.backing_off || c.is_closed) then next c.calls

and send_call c call =
  let wire = fresh_req_id c in
  call.wire <- wire;
  call.sent_to <- c.leader_hint;
  Hashtbl.replace c.pending wire (on_response c call);
  call.timer <-
    Some
      (Des.Sim.after (sim c) c.config.Types.request_timeout (fun () ->
           if call.wire = wire then begin
             rotate_leader c;
             resend_all c ~back_off:false
           end));
  send_request c wire (Types.Submit (Lazy.force call.cmd))

and on_response c call = function
  | Types.Admitted ->
    call.admitted <- true;
    pump c
  | Types.Result result ->
    disarm c call;
    c.calls <- List.filter (fun other -> other != call) c.calls;
    call.finish (Ok result);
    pump c
  | Types.Not_leader { hint; members } ->
    resend_all c ~back_off:(follow_not_leader c ~hint ~members)
  | (Types.Pong | Types.Query_result _) as other ->
    protocol_error "submit" other

and resend_all c ~back_off =
  List.iter (disarm c) c.calls;
  if back_off && not c.backing_off then begin
    c.backing_off <- true;
    ignore
      (Des.Sim.after (sim c) (c.config.Types.request_timeout /. 10.) (fun () ->
           c.backing_off <- false;
           pump c))
  end
  else pump c

(* Send a request and keep retrying until some leader answers it: pings,
   goodbyes and queries, which the leader answers from applied state
   without a log entry.  A hint it moves takes the session's unanswered
   commands along (see [pump]). *)
let rpc c request =
  let req_id = fresh_req_id c in
  let rec attempt () =
    (* A concurrently closed session just terminates the caller quietly, the
       same way a killed process would stop. *)
    if c.is_closed then raise Des.Proc.Killed;
    send_request c req_id request;
    match wait_response c req_id with
    | Some (Types.Not_leader { hint; members }) ->
      let back_off = follow_not_leader c ~hint ~members in
      pump c;
      if back_off then Des.Proc.sleep (c.config.Types.request_timeout /. 10.);
      attempt ()
    | Some response -> response
    | None ->
      rotate_leader c;
      pump c;
      attempt ()
  in
  attempt ()

let enqueue c ~sync make_cmd finish =
  c.cmd_seq <- c.cmd_seq + 1;
  let session = c.session and req = c.cmd_seq in
  let cmd = lazy (make_cmd ~session ~req) in
  c.calls <-
    c.calls
    @ [ { cmd; sync; finish; wire = 0; sent_to = c.leader_hint;
          admitted = false; timer = None } ];
  pump c

(* Block the calling process until the command's result is in.  A caller
   killed meanwhile leaves the command queued (its request number is
   taken); the result is dropped. *)
let submit c make_cmd =
  if c.is_closed then raise Des.Proc.Killed;
  Des.Proc.suspend (fun _ resume ->
      enqueue c ~sync:true make_cmd resume;
      fun () -> ())

let create c ?(ephemeral = false) ?(sequential = false) ~key ~value () =
  match
    submit c (fun ~session ~req ->
        Types.Create { session; req; key; value; ephemeral; sequential })
  with
  | Types.Created final_key -> Ok final_key
  | Types.Op_failed e -> Error e
  | other ->
    failwith
      (Printf.sprintf "Coord.Client.create: bad result (%s)"
         (Format.asprintf "%a" Types.pp_op_result other))

let write c ?expect_version ~key ~value () =
  match
    submit c (fun ~session ~req ->
        Types.Write { session; req; key; value; expect_version })
  with
  | Types.Written version -> Ok version
  | Types.Op_failed e -> Error e
  | other ->
    failwith
      (Printf.sprintf "Coord.Client.write: bad result (%s)"
         (Format.asprintf "%a" Types.pp_op_result other))

let delete c ?expect_version ~key () =
  match
    submit c (fun ~session ~req ->
        Types.Delete { session; req; key; expect_version })
  with
  | Types.Deleted_ok -> Ok ()
  | Types.Op_failed e -> Error e
  | other ->
    failwith
      (Printf.sprintf "Coord.Client.delete: bad result (%s)"
         (Format.asprintf "%a" Types.pp_op_result other))

(* One atomic command however many ops: [Ok] with one result per op, or
   the error of the op that aborted it (then none applied).  No ops, no
   command. *)
let multi c ops =
  if ops = [] then Ok []
  else
    match submit c (fun ~session ~req -> Types.Multi { session; req; ops }) with
    | Types.Multi_ok results -> Ok results
    | Types.Op_failed e -> Error e
    | other ->
      failwith
        (Printf.sprintf "Coord.Client.multi: bad result (%s)"
           (Format.asprintf "%a" Types.pp_op_result other))

(* The same command without waiting: [on_done] runs, in no process, once
   the result is in; never if the session closes first.  [ops] is called
   when the command first leaves. *)
let multi_async_lazy c ops ~on_done =
  if not c.is_closed then
    enqueue c ~sync:false
      (fun ~session ~req -> Types.Multi { session; req; ops = ops () })
      (function Ok result -> on_done result | Error _ -> ())

let multi_async c ops ~on_done =
  if ops = [] then on_done (Types.Multi_ok [])
  else multi_async_lazy c (fun () -> ops) ~on_done

(* ------------------------------------------------------------------ *)
(* Membership changes *)

let add_replica c ~id =
  match
    submit c (fun ~session ~req -> Types.Add_replica { session; req; id })
  with
  | Types.Config_ok -> Ok ()
  | Types.Op_failed e -> Error e
  | other ->
    failwith
      (Printf.sprintf "Coord.Client.add_replica: bad result (%s)"
         (Format.asprintf "%a" Types.pp_op_result other))

let remove_replica c ~id =
  match
    submit c (fun ~session ~req -> Types.Remove_replica { session; req; id })
  with
  | Types.Config_ok -> Ok ()
  | Types.Op_failed e -> Error e
  | other ->
    failwith
      (Printf.sprintf "Coord.Client.remove_replica: bad result (%s)"
         (Format.asprintf "%a" Types.pp_op_result other))

(* ------------------------------------------------------------------ *)
(* Queries *)

let query c q =
  match rpc c (Types.Query q) with
  | Types.Query_result result -> result
  | other -> protocol_error "query" other

let get c key =
  match query c (Types.Get key) with
  | Types.Got entry -> entry
  | Types.Children_are _ | Types.Children_values_are _
  | Types.Child_count _ | Types.Watch_set ->
    failwith "Coord.Client.get: bad query result"

let get_children c prefix =
  match query c (Types.Children prefix) with
  | Types.Children_are keys -> keys
  | Types.Got _ | Types.Children_values_are _
  | Types.Child_count _ | Types.Watch_set ->
    failwith "Coord.Client.get_children: bad query result"

let children_values c prefix n =
  match query c (Types.Children_values (prefix, n)) with
  | Types.Children_values_are items -> items
  | Types.Got _ | Types.Children_are _
  | Types.Child_count _ | Types.Watch_set ->
    failwith "Coord.Client.children_values: bad query result"

let count_children c prefix =
  match query c (Types.Count_children prefix) with
  | Types.Child_count n -> n
  | Types.Got _ | Types.Children_are _
  | Types.Children_values_are _ | Types.Watch_set ->
    failwith "Coord.Client.count_children: bad query result"

let watch_key c key = ignore (query c (Types.Watch_key key))
let watch_children c prefix = ignore (query c (Types.Watch_children prefix))

let await_change c ~timeout =
  Option.is_some (Des.Channel.recv_timeout c.event_channel ~timeout)

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let pump c () =
  while not c.is_closed do
    let src, msg = Des.Channel.recv (Des.Net.inbox c.net c.session) in
    ignore src;
    match msg with
    | Types.Client_resp { req_id; response } ->
      (match Hashtbl.find_opt c.pending req_id with
       | Some deliver -> deliver response
       | None -> () (* late reply to a request already retried *))
    | Types.Watch_fired event -> Des.Channel.send c.event_channel event
    | Types.Peer _ | Types.Client_req _ -> () (* not for clients *)
  done

let pinger c () =
  while not c.is_closed do
    Des.Proc.sleep (c.session_timeout /. 3.);
    if not c.is_closed then ignore (rpc c Types.Ping)
  done

let connect ~net ~id ~members ~config ?session_timeout ~name () =
  let known = List.sort compare members in
  if known = [] then invalid_arg "Coord.Client.connect: empty membership";
  let session_timeout =
    Option.value session_timeout ~default:config.Types.default_session_timeout
  in
  let c =
    {
      session = id;
      net;
      known;
      config;
      session_timeout;
      leader_hint = List.hd known;
      next_req_id = 0;
      cmd_seq = 0;
      pending = Hashtbl.create 8;
      calls = [];
      backing_off = false;
      event_channel = Des.Channel.create ();
      procs = [];
      is_closed = false;
    }
  in
  let pump_proc = Des.Proc.spawn ~name:(name ^ ".pump") (sim c) (pump c) in
  let ping_proc = Des.Proc.spawn ~name:(name ^ ".ping") (sim c) (pinger c) in
  Log.debug (fun m -> m "%s: session %d opening" name id);
  c.procs <- [ pump_proc; ping_proc ];
  c

(* Unanswered commands die with the session: their timers are cancelled
   and blocked callers are woken with [Des.Proc.Killed]. *)
let close c =
  if not c.is_closed then begin
    c.is_closed <- true;
    List.iter Des.Proc.kill c.procs;
    c.procs <- [];
    let calls = c.calls in
    c.calls <- [];
    List.iter
      (fun call ->
        disarm c call;
        call.finish (Error Des.Proc.Killed))
      calls
  end

let disconnect c =
  if not c.is_closed then begin
    (match rpc c Types.Goodbye with
     | Types.Pong -> ()
     | _ -> ());
    close c
  end
