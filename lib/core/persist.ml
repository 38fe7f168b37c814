let log_src = Logs.Src.create "tropic.persist" ~doc:"TROPIC record writes"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* One multi sent on the session; a window released while it is still
   held back joins it. *)
type multi = {
  mutable ops : Coord.Types.op list;
  mutable answered : bool;
  mutable ok : bool;
  mutable notes : (unit -> unit) list;  (* run once it is durable, newest first *)
}

type t = {
  name : string;
  ns : string;
  client : Coord.Client.t;
  dirty : (int, Txn.t) Hashtbl.t;  (* latest deferred state per txn *)
  mutable deferred : bool;
  mutable offers : int list;  (* buffered phyQ offers, newest first *)
  mutable deletes : string list;  (* buffered deletes, newest first *)
  mutable notes : (unit -> unit) list;  (* for the next window, newest first *)
  inflight : multi Queue.t;
      (* sent multis in send order; the answered head is popped *)
  mutable queued : multi option;
      (* the last sent multi while the session still holds it back behind
         an earlier one's receipt *)
  mutable sent : int;  (* ops ever sent *)
  mutable acked : int;  (* ops of the answered prefix of the sent multis *)
  deleting : (string, unit) Hashtbl.t;  (* deletes in flight *)
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
    deletes = [];
    notes = [];
    inflight = Queue.create ();
    queued = None;
    sent = 0;
    acked = 0;
    deleting = Hashtbl.create 32;
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

let barrier t =
  let target = t.sent in
  if t.acked < target then
    Des.Proc.suspend (fun _ resume ->
        t.waiters <- (target, resume) :: t.waiters;
        fun () -> t.waiters <- List.filter (fun (_, r) -> r != resume) t.waiters)

(* Answers arrive in any order; [acked] advances over the answered prefix
   only, so a barrier never passes a multi that is still in flight. *)
let rec settle t =
  match Queue.peek_opt t.inflight with
  | Some multi when multi.answered ->
    ignore (Queue.pop t.inflight);
    t.acked <- t.acked + List.length multi.ops;
    List.iter
      (function
        | Coord.Types.Op_delete { key; _ } -> Hashtbl.remove t.deleting key
        | Coord.Types.Op_create _ | Coord.Types.Op_write _ -> ())
      multi.ops;
    if multi.ok then List.iter (fun note -> note ()) (List.rev multi.notes);
    settle t
  | Some _ | None ->
    let ready, waiting = List.partition (fun (n, _) -> n <= t.acked) t.waiters in
    t.waiters <- waiting;
    List.iter (fun (_, resume) -> resume (Ok ())) (List.rev ready)

(* Send [ops] at once; the session keeps them behind every multi sent
   before.  While the previous multi has not left yet they join it (one
   command, all or none, still a prefix of the windows), so a backlog
   costs one command per receipt, not one per window.  Unconditional
   writes, sequential creates and unconditional deletes cannot fail, so a
   failure answer is a bug (or a later command's cached answer, see
   [Coord.Client]) worth a log line, not a retry. *)
let send ?(notes = []) t ops =
  if ops <> [] then begin
    t.sent <- t.sent + List.length ops;
    match t.queued with
    | Some queued ->
      queued.ops <- queued.ops @ ops;
      queued.notes <- notes @ queued.notes
    | None ->
      let multi = { ops; answered = false; ok = false; notes } in
      Queue.push multi t.inflight;
      t.queued <- Some multi;
      Coord.Client.multi_async_lazy t.client
        (fun () ->
          t.queued <- None;
          multi.ops)
        ~on_done:(fun result ->
          (match result with
           | Coord.Types.Op_failed e ->
             Log.err (fun m ->
                 m "%s: persisting %d ops failed: %s" t.name
                   (List.length multi.ops)
                   (Format.asprintf "%a" Coord.Types.pp_op_error e))
           | _ -> multi.ok <- true);
          multi.answered <- true;
          settle t)
  end

let write_now t txn =
  send t [ record_op t txn ];
  barrier t

let write t (txn : Txn.t) =
  if t.deferred then Hashtbl.replace t.dirty txn.Txn.id txn
  else write_now t txn

let offer t txn_id =
  if t.deferred then t.offers <- txn_id :: t.offers
  else send t [ offer_op t txn_id ]

let delete t key =
  Hashtbl.replace t.deleting key ();
  if t.deferred then t.deletes <- key :: t.deletes
  else send t [ delete_op key ]

let on_durable t note = t.notes <- note :: t.notes
let defer t = t.deferred <- true

(* Records sorted by txn id, so the multi does not depend on hash order;
   each offer follows the record it announces, in the same command. *)
let pending_ops t =
  let txns =
    Hashtbl.fold (fun _ txn acc -> txn :: acc) t.dirty []
    |> List.sort (fun (a : Txn.t) b -> compare a.Txn.id b.Txn.id)
  in
  let offers = List.rev t.offers and deletes = List.rev t.deletes in
  Hashtbl.reset t.dirty;
  t.offers <- [];
  t.deletes <- [];
  List.map (record_op t) txns
  @ List.map (offer_op t) offers
  @ List.map delete_op deletes

(* The deferred window, then [extra], as one send; the window's notes go
   with it (they wait for the next one when there is nothing to send). *)
let send_window t extra =
  match pending_ops t @ extra with
  | [] -> ()
  | ops ->
    let notes = t.notes in
    t.notes <- [];
    send ~notes t ops

let flush t =
  send_window t [];
  barrier t

let release t =
  t.deferred <- false;
  send_window t []

let append t ops = send_window t ops

let deleting t key = Hashtbl.mem t.deleting key
let deleting_count t = Hashtbl.length t.deleting
let unfinished t = t.sent - t.acked + Hashtbl.length t.dirty
