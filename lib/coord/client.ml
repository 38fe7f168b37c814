let log_src = Logs.Src.create "coord.client" ~doc:"coordination client"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  session : int;
  cname : string;
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
  event_channel : Types.watch_event Des.Channel.t;
  submit_tokens : unit Des.Channel.t; (* one token: serializes submits *)
  mutable procs : Des.Proc.t list;
  mutable is_closed : bool;
}

let session_id c = c.session
let name c = c.cname
let events c = c.event_channel
let closed c = c.is_closed
let sim c = Des.Net.sim c.net

(* ------------------------------------------------------------------ *)
(* Request/response plumbing *)

let fresh_req_id c =
  c.next_req_id <- c.next_req_id + 1;
  c.next_req_id

(* Wait for the response to [req_id]; [None] on timeout. *)
let wait_response c req_id =
  Des.Proc.suspend (fun _p resume ->
      let timer = ref None in
      let cancel_timer () =
        match !timer with None -> () | Some ev -> Des.Sim.cancel ev
      in
      Hashtbl.replace c.pending req_id (fun response ->
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

(* Send a request and keep retrying until some leader answers it.  Safe for
   replicated commands thanks to state-machine deduplication. *)
let rpc c request =
  let req_id = fresh_req_id c in
  let rec attempt () =
    (* A concurrently closed session just terminates the caller quietly, the
       same way a killed process would stop. *)
    if c.is_closed then raise Des.Proc.Killed;
    Des.Net.send c.net ~src:c.session ~dst:c.leader_hint
      (Types.Client_req
         { req_id; session_timeout = c.session_timeout; request });
    match wait_response c req_id with
    | Some (Types.Not_leader { hint; members }) ->
      if members <> [] then c.known <- members;
      (match hint with
       | Some leader when leader <> c.leader_hint && List.mem leader c.known ->
         c.leader_hint <- leader
       | Some _ | None ->
         rotate_leader c;
         Des.Proc.sleep (c.config.Types.request_timeout /. 10.));
      attempt ()
    | Some response -> response
    | None ->
      rotate_leader c;
      attempt ()
  in
  attempt ()

let protocol_error what response =
  failwith
    (Printf.sprintf "Coord.Client: unexpected response to %s (%s)" what
       (match response with
        | Types.Pong -> "pong"
        | Types.Result _ -> "result"
        | Types.Query_result _ -> "query-result"
        | Types.Not_leader _ -> "not-leader"))

(* ------------------------------------------------------------------ *)
(* Replicated commands *)

let with_submit_lock c f =
  Des.Channel.recv c.submit_tokens;
  Fun.protect ~finally:(fun () -> Des.Channel.send c.submit_tokens ()) f

let submit c make_cmd =
  with_submit_lock c (fun () ->
      c.cmd_seq <- c.cmd_seq + 1;
      let cmd = make_cmd ~session:c.session ~req:c.cmd_seq in
      match rpc c (Types.Submit cmd) with
      | Types.Result result -> result
      | other -> protocol_error "submit" other)

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
       | Some deliver ->
         Hashtbl.remove c.pending req_id;
         deliver response
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
      cname = name;
      net;
      known;
      config;
      session_timeout;
      leader_hint = List.hd known;
      next_req_id = 0;
      cmd_seq = 0;
      pending = Hashtbl.create 8;
      event_channel = Des.Channel.create ~name:(name ^ ".events") ();
      submit_tokens = Des.Channel.create ~name:(name ^ ".lock") ();
      procs = [];
      is_closed = false;
    }
  in
  Des.Channel.send c.submit_tokens ();
  let pump_proc = Des.Proc.spawn ~name:(name ^ ".pump") (sim c) (pump c) in
  let ping_proc = Des.Proc.spawn ~name:(name ^ ".ping") (sim c) (pinger c) in
  Log.debug (fun m -> m "%s: session %d opening" name id);
  c.procs <- [ pump_proc; ping_proc ];
  c

let close c =
  if not c.is_closed then begin
    c.is_closed <- true;
    List.iter Des.Proc.kill c.procs;
    c.procs <- []
  end

let disconnect c =
  if not c.is_closed then begin
    (match rpc c Types.Goodbye with
     | Types.Pong -> ()
     | _ -> ());
    close c
  end
