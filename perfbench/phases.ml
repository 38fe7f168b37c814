(* Per-transaction latency split of a traced repetition.  The sim-clock
   span tree of each committed txn is joined by txn id with the client's
   own submit and await timestamps, and cut into phases that add up
   exactly to its end-to-end latency:

     submit     client submit (or due time) until the txn root span opens
     simulate   logical simulation, with its controller-CPU queueing
     lock_wait  parked on a lock conflict (or an open breaker)
     replay     physical replay by a worker, undo excluded
     undo       rollback of a failed replay
     persist    root self time no child span covers: coordination writes
                and the phyQ/result hops, which emit no spans of their own
     failover   root self time between a leader kill and the next leader
     finalize   root close until await returns

   Where spans overlap, the later of simulate..undo in this list wins.  A
   span the killed leader left open is closed by its successor's finalize;
   it is cut at the kill, so the fail-over gap does not count as the work
   that span stood for. *)

let names =
  [| "submit"; "simulate"; "lock_wait"; "replay"; "undo"; "persist";
     "failover"; "finalize" |]

let submit = 0
let simulate = 1
let lock_wait = 2
let replay = 3
let undo = 4
let persist = 5
let failover = 6
let finalize = 7

let phase_of (sp : Trace.span) =
  match (sp.Trace.cat, sp.Trace.name) with
  | "controller", "simulate" -> Some simulate
  | _, ("lock-wait" | "breaker-park") -> Some lock_wait
  | "physical", _ -> Some replay
  | "undo", _ -> Some undo
  | _ -> None

(* Phase durations of one txn from all its spans; [kill, leader] is the
   fail-over window, empty (infinite) when no leader was killed. *)
let split ~kill ~leader ~origin ~finished spans =
  match List.filter (fun (sp : Trace.span) -> sp.Trace.cat = "txn") spans with
  | [ { Trace.start_ts = rs; end_ts = Some re; _ } ] ->
    let clip x = Float.min re (Float.max rs x) in
    let end_of (sp : Trace.span) e =
      if sp.Trace.start_ts < kill && Trace.attr sp "closed_by" = Some "finalize"
      then Float.min e kill
      else e
    in
    let covered =
      List.filter_map
        (fun (sp : Trace.span) ->
          match (phase_of sp, sp.Trace.end_ts) with
          | Some p, Some e -> Some (clip sp.Trace.start_ts, clip (end_of sp e), p)
          | Some _, None | None, _ -> None)
        spans
    in
    let cuts =
      List.sort_uniq Float.compare
        (rs :: re :: clip kill :: clip leader
         :: List.concat_map (fun (s, e, _) -> [ s; e ]) covered)
    in
    let phases = Array.make (Array.length names) 0. in
    let rec walk = function
      | a :: (b :: _ as rest) ->
        let p =
          List.fold_left
            (fun best (s, e, p) -> if s <= a && b <= e then max best p else best)
            (-1) covered
        in
        let p =
          if p >= 0 then p else if kill <= a && b <= leader then failover else persist
        in
        phases.(p) <- phases.(p) +. (b -. a);
        walk rest
      | [ _ ] | [] -> ()
    in
    walk cuts;
    phases.(submit) <- rs -. origin;
    phases.(finalize) <- finished -. re;
    if Array.exists (fun x -> x < -1e-9) phases then Error "a phase is negative"
    else Ok phases
  | [] -> Error "no txn root span"
  | [ _ ] -> Error "txn root span never closed"
  | _ :: _ :: _ -> Error "several txn root spans"

(* Splits of the committed [samples] of a traced repetition, and the
   problems met joining them. *)
let split_all ~kill ~leader tracer samples =
  let by_txn = Hashtbl.create 4096 in
  List.iter
    (fun (sp : Trace.span) -> Hashtbl.add by_txn sp.Trace.txn sp)
    (Trace.spans tracer);
  List.fold_right
    (fun (s : Harness.sample) (ok, problems) ->
      match
        split ~kill ~leader ~origin:s.Harness.origin ~finished:s.Harness.finished
          (Hashtbl.find_all by_txn s.Harness.id)
      with
      | Ok p -> ((s, p) :: ok, problems)
      | Error e -> (ok, Printf.sprintf "txn %d: %s" s.Harness.id e :: problems))
    samples ([], [])
