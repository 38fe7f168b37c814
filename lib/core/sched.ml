type attempt = [ `Started | `Finished | `Conflict ]

type t = {
  ready : Txn.t Deque.t;
  blocked : (int, Txn.t) Hashtbl.t;
  just_woken : (int, unit) Hashtbl.t; (* woken but not yet re-attempted *)
}

let create () =
  {
    ready = Deque.create ();
    blocked = Hashtbl.create 16;
    just_woken = Hashtbl.create 8;
  }

let blocked_length t = Hashtbl.length t.blocked
let length t = Deque.length t.ready + blocked_length t
let submit t txn = Deque.push_back t.ready txn

(* Every ready transaction gets one attempt; conflicting ones park
   individually and the rest keep flowing past them.  Ordering between
   conflicting transactions is the lock manager's job: the oldest parked
   one reserves its wanted set, so nothing younger takes it. *)
let drain t ~attempt ~on_spurious =
  let rec loop () =
    match Deque.pop_front t.ready with
    | None -> ()
    | Some txn ->
      let woken = Hashtbl.mem t.just_woken txn.Txn.id in
      Hashtbl.remove t.just_woken txn.Txn.id;
      (match attempt txn with
       | `Started | `Finished -> ()
       | `Conflict ->
         if woken then on_spurious txn;
         Hashtbl.replace t.blocked txn.Txn.id txn);
      loop ()
  in
  loop ()

let wake t ids =
  (* Woken transactions are older than anything still ready (they parked
     before it was submitted or drained), so they rejoin at the front, in
     ascending id = submission order: the head is re-attempted before any
     transaction its reservation refused. *)
  let woken =
    List.filter_map
      (fun id ->
        match Hashtbl.find_opt t.blocked id with
        | None -> None (* already removed (signal) or never parked *)
        | Some txn ->
          Hashtbl.remove t.blocked id;
          Hashtbl.replace t.just_woken id ();
          Some txn)
      (List.sort_uniq compare ids)
  in
  List.iter (Deque.push_front t.ready) (List.rev woken);
  List.length woken

let remove t id =
  match Hashtbl.find_opt t.blocked id with
  | Some _ ->
    Hashtbl.remove t.blocked id;
    Hashtbl.remove t.just_woken id;
    `Blocked
  | None ->
    Hashtbl.remove t.just_woken id;
    if Deque.remove t.ready (fun (q : Txn.t) -> q.Txn.id = id) > 0 then `Ready
    else `Absent
