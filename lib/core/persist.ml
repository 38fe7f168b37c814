let log_src = Logs.Src.create "tropic.persist" ~doc:"TROPIC record writes"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Work item for the pool sessions. *)
type job =
  | Write of string * string
  | Delete of string
  | Enqueue of string * string  (* queue, payload: sequential create *)

type t = {
  sim : Des.Sim.t;
  name : string;
  ns : string;
  client : Coord.Client.t;
  pool : Coord.Client.t list;
  dirty : (int, Txn.t) Hashtbl.t;  (* latest deferred state per txn *)
  mutable deferred : bool;
  mutable in_flight : int;  (* writes and queue jobs issued, not yet acked *)
  mutable offers : job list;  (* buffered phyQ offers, newest first *)
  mutable jobs : job Des.Channel.t option;  (* set once workers run *)
  acks : unit Des.Channel.t;  (* one per completed pool job *)
}

let create ~sim ~name ~ns ~client ~pool =
  {
    sim;
    name;
    ns;
    client;
    pool;
    dirty = Hashtbl.create 32;
    deferred = false;
    in_flight = 0;
    offers = [];
    jobs = None;
    acks = Des.Channel.create ~name:(name ^ ".packs") ();
  }

let deferring t = t.deferred && t.pool <> []

let exec t client = function
  | Write (key, value) -> (
    match Coord.Client.write client ~key ~value () with
    | Ok _ -> ()
    | Error e ->
      Log.err (fun m ->
          m "%s: persisting %s failed: %s" t.name key
            (Format.asprintf "%a" Coord.Types.pp_op_error e)))
  | Delete key -> ignore (Coord.Client.delete client ~key ())
  | Enqueue (queue, payload) ->
    ignore (Coord.Recipes.enqueue client ~queue payload)

(* Run jobs through the pool when its workers run, inline on the main
   session otherwise; blocks until every job is applied. *)
let run t jobs =
  let n = List.length jobs in
  t.in_flight <- t.in_flight + n;
  (match t.jobs with
   | None -> List.iter (exec t t.client) jobs
   | Some chan ->
     List.iter (Des.Channel.send chan) jobs;
     for _ = 1 to n do
       Des.Channel.recv t.acks
     done);
  t.in_flight <- t.in_flight - n

let record_job t (txn : Txn.t) =
  Write (Txn.record_key_ns t.ns txn.Txn.id, Txn.to_string txn)

let write_now t txn =
  t.in_flight <- t.in_flight + 1;
  exec t t.client (record_job t txn);
  t.in_flight <- t.in_flight - 1

let write t (txn : Txn.t) =
  if deferring t then Hashtbl.replace t.dirty txn.Txn.id txn
  else write_now t txn

let offer t txn_id =
  let job = Enqueue (Proto.phy_queue_ns t.ns, string_of_int txn_id) in
  if deferring t then t.offers <- job :: t.offers else exec t t.client job

let defer t = t.deferred <- true

let flush t =
  if Hashtbl.length t.dirty > 0 then begin
    let txns = Hashtbl.fold (fun _ txn acc -> txn :: acc) t.dirty [] in
    Hashtbl.reset t.dirty;
    run t (List.map (record_job t) txns)
  end

let release t =
  t.deferred <- false;
  flush t;
  let offers = List.rev t.offers in
  t.offers <- [];
  run t offers

let delete_items t keys = run t (List.map (fun k -> Delete k) keys)
let unfinished t = t.in_flight + Hashtbl.length t.dirty
let input_burst t = if t.pool = [] then 1 else 16

let start_workers t =
  if t.pool = [] then []
  else begin
    let jobs = Des.Channel.create ~name:(t.name ^ ".pjobs") () in
    t.jobs <- Some jobs;
    List.mapi
      (fun i client ->
        Des.Proc.spawn
          ~name:(Printf.sprintf "%s.persist-%d" t.name i)
          t.sim
          (fun () ->
            while true do
              exec t client (Des.Channel.recv jobs);
              Des.Channel.send t.acks ()
            done))
      t.pool
  end

let close t = List.iter Coord.Client.close t.pool
