type cause = Lock of float | Breaker of Data.Path.t list | Votes
type attempt = [ `Started | `Finished | `Parked of cause ]

type t = {
  st : Stats.stats;
  ready : (Txn.t * cause option) Deque.t; (* with the cause it woke from *)
  blocked : (int, Txn.t * cause) Hashtbl.t;
  woken : (int, unit) Hashtbl.t; (* blocked ids the next drain delivers *)
}

let create ~stats () =
  {
    st = stats;
    ready = Deque.create ();
    blocked = Hashtbl.create 16;
    woken = Hashtbl.create 32;
  }

let blocked_length t = Hashtbl.length t.blocked
let length t = Deque.length t.ready + blocked_length t
let submit t txn = Deque.push_back t.ready (txn, None)
let has_wakes t = Hashtbl.length t.woken > 0

let wake t ids =
  List.iter
    (fun id -> if Hashtbl.mem t.blocked id then Hashtbl.replace t.woken id ())
    ids

(* Woken transactions are older than anything still ready (they parked
   before it was submitted or drained), so they rejoin at the front, in
   ascending id = submission order: the head is re-attempted before any
   transaction its reservation refused. *)
let deliver t =
  let ids = Hashtbl.fold (fun id () acc -> id :: acc) t.woken [] in
  Hashtbl.reset t.woken;
  List.iter
    (fun id ->
      let txn, cause = Hashtbl.find t.blocked id in
      Hashtbl.remove t.blocked id;
      (* Only a lock release's wake counts: a breaker re-gate is not one. *)
      (match cause with
       | Lock _ -> t.st.wakeups <- t.st.wakeups + 1
       | Breaker _ | Votes -> ());
      Deque.push_front t.ready (txn, Some cause))
    (List.sort (fun a b -> compare b a) ids)

(* Every ready transaction gets one attempt; conflicting ones park
   individually and the rest keep flowing past them.  Ordering between
   conflicting transactions is the lock manager's job: the oldest parked
   one reserves its wanted set, so nothing younger takes it. *)
let drain t ~attempt =
  deliver t;
  let rec loop () =
    match Deque.pop_front t.ready with
    | None -> ()
    | Some (txn, woken) ->
      (match attempt txn ~woken with
       | `Started | `Finished -> ()
       | `Parked cause ->
         if woken <> None then
           t.st.spurious_wakeups <- t.st.spurious_wakeups + 1;
         Hashtbl.replace t.blocked txn.Txn.id (txn, cause));
      loop ()
  in
  loop ()

let parked t =
  Hashtbl.fold
    (fun id (_, cause) acc ->
      if Hashtbl.mem t.woken id then acc else (id, cause) :: acc)
    t.blocked []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let remove t id =
  Hashtbl.remove t.woken id;
  if Hashtbl.mem t.blocked id then begin
    Hashtbl.remove t.blocked id;
    `Blocked
  end
  else if Deque.remove t.ready (fun ((q : Txn.t), _) -> q.Txn.id = id) > 0
  then `Ready
  else `Absent
