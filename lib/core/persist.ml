let log_src = Logs.Src.create "tropic.persist" ~doc:"TROPIC record writes"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  name : string;
  ns : string;
  client : Coord.Client.t;
  dirty : (int, Txn.t) Hashtbl.t;  (* latest deferred state per txn *)
  mutable deferred : bool;
  mutable in_flight : int;  (* ops of the multi in flight, not yet acked *)
  mutable offers : int list;  (* buffered phyQ offers, newest first *)
}

let create ~name ~ns ~client =
  {
    name;
    ns;
    client;
    dirty = Hashtbl.create 32;
    deferred = false;
    in_flight = 0;
    offers = [];
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

(* One multi for [ops]; blocks until it is applied.  Unconditional writes,
   sequential creates and unconditional deletes cannot fail, so an error
   here is a bug worth a log line, not a retry. *)
let commit t ops =
  let n = List.length ops in
  t.in_flight <- t.in_flight + n;
  (match Coord.Client.multi t.client ops with
   | Ok _ -> ()
   | Error e ->
     Log.err (fun m ->
         m "%s: persisting %d ops failed: %s" t.name n
           (Format.asprintf "%a" Coord.Types.pp_op_error e)));
  t.in_flight <- t.in_flight - n

let write_now t txn = commit t [ record_op t txn ]

let write t (txn : Txn.t) =
  if t.deferred then Hashtbl.replace t.dirty txn.Txn.id txn
  else write_now t txn

let offer t txn_id =
  if t.deferred then t.offers <- txn_id :: t.offers
  else commit t [ offer_op t txn_id ]

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

let flush t = commit t (pending_ops t)

let release ?(deletes = []) t =
  t.deferred <- false;
  commit t (pending_ops t @ List.map delete_op deletes)

let unfinished t = t.in_flight + Hashtbl.length t.dirty
