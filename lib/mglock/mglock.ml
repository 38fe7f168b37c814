module Path = Data.Path

type mode = R | W | IR | IW

let mode_to_string = function R -> "R" | W -> "W" | IR -> "IR" | IW -> "IW"
let pp_mode fmt m = Format.pp_print_string fmt (mode_to_string m)

let compatible a b =
  match a, b with
  | IR, (IR | IW | R) | (IW | R), IR -> true
  | IW, IW -> true
  | R, R -> true
  | IR, W | W, IR -> false
  | IW, (R | W) | (R | W), IW -> false
  | R, W | W, R -> false
  | W, W -> false

(* Lattice order: IR < IW < W, IR < R < W; R and IW join to W because this
   scheme has no RIW/SIX mode. *)
let join a b =
  match a, b with
  | x, y when x = y -> x
  | IR, m | m, IR -> m
  | W, _ | _, W -> W
  | IW, R | R, IW -> W
  | IW, IW | R, R -> assert false (* covered by the first clause *)

let intention = function R | IR -> IR | W | IW -> IW

type conflict = {
  path : Path.t;
  wanted : mode;
  holder : int;
  held : mode;
  reserved : bool;
}

let pp_conflict fmt c =
  Format.fprintf fmt "%a: txn %d %s %a, wanted %a" Path.pp c.path c.holder
    (if c.reserved then "reserves" else "holds")
    pp_mode c.held pp_mode c.wanted

module Imap = Map.Make (Int)
module Iset = Set.Make (Int)
module Pmap = Map.Make (Path)

(* One entry per tree node that currently carries holders or waiters.
   Holder maps stay as small immutable maps so snapshots (holders/held_by)
   and deterministic txn-id iteration come for free. *)
type entry = {
  node : Path.t;
  mutable eholders : mode Imap.t; (* txn -> mode *)
  mutable waiters : Iset.t; (* txns deferred on a conflict at this node *)
}

(* A waiter registration: the node the txn is parked on, and its full
   requirement set (intention locks included) keyed by node — the
   reservation it holds while it is the oldest waiter. *)
type waiter = { on : Path.t; wants : mode Pmap.t }

type t = {
  entries : (Path.t, entry) Hashtbl.t; (* node -> entry *)
  by_txn : (int, Path.t list) Hashtbl.t; (* txn -> nodes it locks *)
  mutable waiting : waiter Imap.t; (* waiter txn -> registration *)
  mutable attempts : int; (* cumulative try_acquire calls *)
}

let create () =
  {
    entries = Hashtbl.create 64;
    by_txn = Hashtbl.create 64;
    waiting = Imap.empty;
    attempts = 0;
  }

let find_entry t node = Hashtbl.find_opt t.entries node

let find_or_create_entry t node =
  match find_entry t node with
  | Some e -> e
  | None ->
    let e = { node; eholders = Imap.empty; waiters = Iset.empty } in
    Hashtbl.replace t.entries node e;
    e

let drop_entry_if_empty t e =
  if Imap.is_empty e.eholders && Iset.is_empty e.waiters then
    Hashtbl.remove t.entries e.node

(* The full requirement implied by a request: each requested lock plus
   intention locks on all ancestors, merged per node with [join].  Returned
   in path order so the "first conflict" reported is deterministic. *)
let requirements locks =
  let tbl = Hashtbl.create 16 in
  let add node mode =
    match Hashtbl.find_opt tbl node with
    | None -> Hashtbl.replace tbl node mode
    | Some m -> Hashtbl.replace tbl node (join m mode)
  in
  List.iter
    (fun (path, mode) ->
      add path mode;
      List.iter (fun anc -> add anc (intention mode)) (Path.ancestors path))
    locks;
  Hashtbl.fold (fun node mode acc -> (node, mode) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Path.compare a b)

(* An upgrade must be checked at the strength it will actually be stored
   at: the join of what the txn already holds with what it now wants (e.g.
   held R + wanted IW stores W). *)
let effective e ~txn mode =
  match Imap.find_opt txn e.eholders with
  | None -> mode
  | Some own -> join own mode

let find_conflict t ~txn wanted =
  List.find_map
    (fun (node, mode) ->
      match find_entry t node with
      | None -> None
      | Some e ->
        let effective = effective e ~txn mode in
        Imap.fold
          (fun holder held found ->
            match found with
            | Some _ -> found
            | None ->
              if holder <> txn && not (compatible held effective) then
                Some
                  {
                    path = node;
                    wanted = effective;
                    holder;
                    held;
                    reserved = false;
                  }
              else None)
          e.eholders None)
    wanted

(* The oldest registered waiter reserves its wanted set against every
   younger requester.  The refusal points at the node that waiter is
   parked on: a holder there conflicts with the waiter, so its release
   wakes the waiter and the refused txn together. *)
let find_reserved t ~txn wanted =
  match Imap.min_binding_opt t.waiting with
  | Some (head, w) when head < txn ->
    List.find_map
      (fun (node, mode) ->
        match Pmap.find_opt node w.wants with
        | None -> None
        | Some reserved ->
          let effective =
            match find_entry t node with
            | None -> mode
            | Some e -> effective e ~txn mode
          in
          if compatible reserved effective then None
          else
            Some
              {
                path = w.on;
                wanted = effective;
                holder = head;
                held = reserved;
                reserved = true;
              })
      wanted
  | Some _ | None -> None

let try_acquire ?(reservations = true) t ~txn locks =
  t.attempts <- t.attempts + 1;
  let wanted = requirements locks in
  let conflict =
    match find_conflict t ~txn wanted with
    | Some _ as c -> c
    | None -> if reservations then find_reserved t ~txn wanted else None
  in
  match conflict with
  | Some conflict -> Error conflict
  | None ->
    let newly_locked = ref [] in
    List.iter
      (fun (node, mode) ->
        let e = find_or_create_entry t node in
        if not (Imap.mem txn e.eholders) then
          newly_locked := node :: !newly_locked;
        e.eholders <-
          Imap.update txn
            (function None -> Some mode | Some held -> Some (join held mode))
            e.eholders)
      wanted;
    (match !newly_locked with
     | [] -> ()
     | nodes ->
       let prev = Option.value (Hashtbl.find_opt t.by_txn txn) ~default:[] in
       Hashtbl.replace t.by_txn txn (List.rev_append nodes prev));
    Ok ()

let cancel_wait t ~txn =
  match Imap.find_opt txn t.waiting with
  | None -> ()
  | Some w ->
    t.waiting <- Imap.remove txn t.waiting;
    (match find_entry t w.on with
     | None -> ()
     | Some e ->
       e.waiters <- Iset.remove txn e.waiters;
       drop_entry_if_empty t e)

let wait t ~txn ~on locks =
  cancel_wait t ~txn;
  let e = find_or_create_entry t on in
  e.waiters <- Iset.add txn e.waiters;
  let wants =
    List.fold_left
      (fun acc (n, mode) -> Pmap.add n mode acc)
      Pmap.empty (requirements locks)
  in
  t.waiting <- Imap.add txn { on; wants } t.waiting

let release_all t ~txn =
  match Hashtbl.find_opt t.by_txn txn with
  | None -> []
  | Some nodes ->
    Hashtbl.remove t.by_txn txn;
    let woken = ref Iset.empty in
    List.iter
      (fun node ->
        match find_entry t node with
        | None -> ()
        | Some e ->
          e.eholders <- Imap.remove txn e.eholders;
          (* Waking every waiter parked on a released node is the sound
             over-approximation: a waiter may still conflict with a
             remaining holder (a spurious wakeup, it re-parks), but no
             grantable waiter is ever left sleeping. *)
          if not (Iset.is_empty e.waiters) then begin
            woken := Iset.union !woken e.waiters;
            Iset.iter (fun w -> t.waiting <- Imap.remove w t.waiting) e.waiters;
            e.waiters <- Iset.empty
          end;
          drop_entry_if_empty t e)
      nodes;
    Iset.elements !woken

let waiting_on t ~txn =
  Option.map (fun w -> w.on) (Imap.find_opt txn t.waiting)

let waiter_count t = Imap.cardinal t.waiting

let holders t path =
  match find_entry t path with
  | None -> []
  | Some e -> Imap.bindings e.eholders

let held_by t ~txn =
  match Hashtbl.find_opt t.by_txn txn with
  | None -> []
  | Some nodes ->
    nodes
    |> List.filter_map (fun node ->
           match find_entry t node with
           | None -> None
           | Some e ->
             Option.map
               (fun mode -> (node, mode))
               (Imap.find_opt txn e.eholders))
    |> List.sort (fun (a, _) (b, _) -> Path.compare a b)

let lock_count t =
  Hashtbl.fold (fun _ e acc -> acc + Imap.cardinal e.eholders) t.entries 0

let acquire_attempts t = t.attempts
