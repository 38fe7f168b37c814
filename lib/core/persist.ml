let log_src = Logs.Src.create "tropic.persist" ~doc:"TROPIC record writes"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  name : string;
  ns : string;
  client : Coord.Client.t;
  dirty : (int, Txn.t) Hashtbl.t;  (* latest deferred state per txn *)
  mutable deferred : bool;
  mutable offers : int list;  (* buffered phyQ offers, newest first *)
  mutable queue : Coord.Types.op list;  (* released, not yet sent; newest first *)
  mutable queued : int;  (* ops ever queued *)
  mutable acked : int;  (* ops ever acked: a prefix of the queued ones *)
  deleting : (string, unit) Hashtbl.t;  (* deletes queued or in flight *)
  mutable kick : unit Des.Proc.resumer option;  (* the idle writer *)
  mutable waiters : (int * unit Des.Proc.resumer) list;
      (* barrier callers, each with the [acked] count it waits for *)
}

let create ~name ~ns ~client =
  {
    name;
    ns;
    client;
    dirty = Hashtbl.create 32;
    deferred = false;
    offers = [];
    queue = [];
    queued = 0;
    acked = 0;
    deleting = Hashtbl.create 32;
    kick = None;
    waiters = [];
  }

let record_op t (txn : Txn.t) =
  Coord.Types.Op_write
    {
      key = Txn.record_key_ns t.ns txn.Txn.id;
      value = Txn.to_string txn;
      expect_version = None;
    }

let offer_op t txn_id =
  Coord.Recipes.enqueue_op ~queue:(Proto.phy_queue_ns t.ns) (string_of_int txn_id)

let delete_op key = Coord.Types.Op_delete { key; expect_version = None }

let enqueue t ops =
  if ops <> [] then begin
    t.queue <- List.rev_append ops t.queue;
    t.queued <- t.queued + List.length ops;
    Option.iter
      (fun resume ->
        t.kick <- None;
        resume (Ok ()))
      t.kick
  end

let barrier t =
  let target = t.queued in
  if t.acked < target then
    Des.Proc.suspend (fun _ resume ->
        t.waiters <- (target, resume) :: t.waiters;
        fun () -> t.waiters <- List.filter (fun (_, r) -> r != resume) t.waiters)

(* One multi for everything queued; blocks until it is applied.
   Unconditional writes, sequential creates and unconditional deletes
   cannot fail, so an error here is a bug worth a log line, not a retry. *)
let send t ops =
  (match Coord.Client.multi t.client ops with
   | Ok _ -> ()
   | Error e ->
     Log.err (fun m ->
         m "%s: persisting %d ops failed: %s" t.name (List.length ops)
           (Format.asprintf "%a" Coord.Types.pp_op_error e)));
  t.acked <- t.acked + List.length ops;
  List.iter
    (function
      | Coord.Types.Op_delete { key; _ } -> Hashtbl.remove t.deleting key
      | Coord.Types.Op_create _ | Coord.Types.Op_write _ -> ())
    ops;
  let ready, waiting = List.partition (fun (n, _) -> n <= t.acked) t.waiters in
  t.waiters <- waiting;
  List.iter (fun (_, resume) -> resume (Ok ())) (List.rev ready)

let writer t () =
  while true do
    match t.queue with
    | [] ->
      Des.Proc.suspend (fun _ resume ->
          t.kick <- Some resume;
          fun () -> t.kick <- None)
    | newest_first ->
      t.queue <- [];
      send t (List.rev newest_first)
  done

let start t =
  Des.Proc.spawn ~name:(t.name ^ ".writer") (Coord.Client.sim t.client)
    (writer t)

let write_now t txn =
  enqueue t [ record_op t txn ];
  barrier t

let write t (txn : Txn.t) =
  if t.deferred then Hashtbl.replace t.dirty txn.Txn.id txn
  else write_now t txn

let offer t txn_id =
  if t.deferred then t.offers <- txn_id :: t.offers
  else enqueue t [ offer_op t txn_id ]

let defer t = t.deferred <- true

(* Records sorted by txn id, so the multi does not depend on hash order;
   each offer follows the record it announces, in the same command. *)
let pending_ops t =
  let txns =
    Hashtbl.fold (fun _ txn acc -> txn :: acc) t.dirty []
    |> List.sort (fun (a : Txn.t) b -> compare a.Txn.id b.Txn.id)
  in
  let offers = List.rev t.offers in
  Hashtbl.reset t.dirty;
  t.offers <- [];
  List.map (record_op t) txns @ List.map (offer_op t) offers

let flush t =
  enqueue t (pending_ops t);
  barrier t

let release ?(deletes = []) t =
  t.deferred <- false;
  List.iter (fun key -> Hashtbl.replace t.deleting key ()) deletes;
  enqueue t (pending_ops t @ List.map delete_op deletes)

let deleting t key = Hashtbl.mem t.deleting key
let deleting_count t = Hashtbl.length t.deleting
let unfinished t = t.queued - t.acked + Hashtbl.length t.dirty
