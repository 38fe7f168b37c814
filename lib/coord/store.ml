module Smap = Types.Smap
module Imap = Types.Imap

type entry = Types.entry = { value : string; version : int; owner : int option }

(* The fields of a [Types.image], each replaced (never mutated in place)
   by an apply. *)
type t = {
  mutable entries : entry Smap.t;
  mutable seq_counter : int;
  mutable dedup : (int * Types.op_result) Imap.t; (* session -> last req, result *)
  mutable order_gaps : int;
      (* data commands applied past a hole in their session's request
         sequence *)
  mutable members : int list;
      (* ensemble configuration as of the *applied* prefix; every
         instance must boot from the same list or replay diverges *)
}

let create ?(members = []) () =
  {
    entries = Smap.empty;
    seq_counter = 0;
    dedup = Imap.empty;
    order_gaps = 0;
    members = List.sort compare members;
  }

let members t = t.members
let order_gaps t = t.order_gaps

let parent key =
  match String.rindex_opt key '/' with
  | None -> None
  | Some i -> Some (String.sub key 0 i)

let get t key =
  Option.map (fun e -> (e.value, e.version)) (Smap.find_opt key t.entries)

let exists t key = Smap.mem key t.entries
let size t = Smap.cardinal t.entries

let keys t =
  Smap.fold (fun key e acc -> (key, Option.is_some e.owner) :: acc) t.entries []
  |> List.rev

(* The first [limit] direct children of [prefix] with their entries.  Smap
   iterates in key order from the prefix, so the walk stops at the first key
   past the prefix range, or once [limit] children are found. *)
let direct_children t prefix limit =
  let prefix_slash = prefix ^ "/" in
  let plen = String.length prefix_slash in
  let rec collect seq n acc =
    if n >= limit then List.rev acc
    else
      match Seq.uncons seq with
      | Some ((key, e), rest)
        when String.length key >= plen && String.sub key 0 plen = prefix_slash
        ->
        if String.length key > plen && not (String.contains_from key plen '/')
        then collect rest (n + 1) ((key, e) :: acc)
        else collect rest n acc
      | Some _ | None -> List.rev acc
  in
  collect (Smap.to_seq_from prefix_slash t.entries) 0 []

let children t prefix = List.map fst (direct_children t prefix max_int)

let children_values t prefix n =
  List.map (fun (key, e) -> (key, e.value)) (direct_children t prefix n)

let count_children t prefix = List.length (children t prefix)

let ephemeral_owners t =
  Smap.fold
    (fun _ e acc ->
      match e.owner with
      | Some s when not (List.mem s acc) -> s :: acc
      | Some _ | None -> acc)
    t.entries []

let do_create t ~session ~key ~value ~ephemeral ~sequential =
  let final_key =
    if sequential then begin
      t.seq_counter <- t.seq_counter + 1;
      Printf.sprintf "%s%010d" key t.seq_counter
    end
    else key
  in
  if Smap.mem final_key t.entries then
    (Types.Op_failed Types.Key_exists, [])
  else begin
    let owner = if ephemeral then Some session else None in
    t.entries <- Smap.add final_key { value; version = 1; owner } t.entries;
    (Types.Created final_key, [ final_key ])
  end

let do_write t ~key ~value ~expect_version =
  match Smap.find_opt key t.entries, expect_version with
  | None, Some _ -> (Types.Op_failed Types.Key_missing, [])
  | None, None ->
    t.entries <- Smap.add key { value; version = 1; owner = None } t.entries;
    (Types.Written 1, [ key ])
  | Some e, Some v when e.version <> v -> (Types.Op_failed Types.Bad_version, [])
  | Some e, (Some _ | None) ->
    let e' = { e with value; version = e.version + 1 } in
    t.entries <- Smap.add key e' t.entries;
    (Types.Written e'.version, [ key ])

let do_delete t ~key ~expect_version =
  match Smap.find_opt key t.entries, expect_version with
  | None, _ -> (Types.Op_failed Types.Key_missing, [])
  | Some e, Some v when e.version <> v -> (Types.Op_failed Types.Bad_version, [])
  | Some _, (Some _ | None) ->
    t.entries <- Smap.remove key t.entries;
    (Types.Deleted_ok, [ key ])

(* All or none: the ops run in order against the live store, and the first
   failure restores the entries and the sequence counter it started from
   (both immutable or plain values, so the restore is O(1)) and reports no
   changed key, so no watch fires for an aborted multi. *)
let do_multi t ~session ops =
  let entries = t.entries and seq_counter = t.seq_counter in
  let rec go results changed = function
    | [] -> (Types.Multi_ok (List.rev results), List.concat (List.rev changed))
    | op :: rest ->
      let result, keys =
        match op with
        | Types.Op_create { key; value; ephemeral; sequential } ->
          do_create t ~session ~key ~value ~ephemeral ~sequential
        | Types.Op_write { key; value; expect_version } ->
          do_write t ~key ~value ~expect_version
        | Types.Op_delete { key; expect_version = None }
          when not (Smap.mem key t.entries) ->
          (Types.Deleted_ok, [])
        | Types.Op_delete { key; expect_version } ->
          do_delete t ~key ~expect_version
      in
      (match result with
       | Types.Op_failed e ->
         t.entries <- entries;
         t.seq_counter <- seq_counter;
         (Types.Op_failed e, [])
       | _ -> go (result :: results) (keys :: changed) rest)
  in
  go [] [] ops

let do_expire t session =
  let doomed =
    Smap.fold
      (fun key e acc -> if e.owner = Some session then key :: acc else acc)
      t.entries []
  in
  List.iter (fun key -> t.entries <- Smap.remove key t.entries) doomed;
  t.dedup <- Imap.remove session t.dedup;
  (Types.Expired_ok, List.rev doomed)

let apply t cmd =
  let deduped ?(data = true) session req run =
    match Imap.find_opt session t.dedup with
    | Some (last_req, cached) when req <= last_req -> (cached, [])
    | last ->
      (* A config command the leader answered without a log entry (already
         a member, another change pending) consumes a request number too,
         so only data commands are held to the dense sequence. *)
      (match last with
       | Some (last_req, _) when data && req > last_req + 1 ->
         t.order_gaps <- t.order_gaps + 1
       | Some _ | None -> ());
      let result, changed = run () in
      t.dedup <- Imap.add session (req, result) t.dedup;
      (result, changed)
  in
  match cmd with
  | Types.Create { session; req; key; value; ephemeral; sequential } ->
    deduped session req (fun () ->
        do_create t ~session ~key ~value ~ephemeral ~sequential)
  | Types.Write { session; req; key; value; expect_version } ->
    deduped session req (fun () -> do_write t ~key ~value ~expect_version)
  | Types.Delete { session; req; key; expect_version } ->
    deduped session req (fun () -> do_delete t ~key ~expect_version)
  | Types.Multi { session; req; ops } ->
    deduped session req (fun () -> do_multi t ~session ops)
  | Types.Expire_session session -> do_expire t session
  | Types.Noop -> (Types.Noop_ok, [])
  | Types.Add_replica { session; req; id } ->
    deduped ~data:false session req (fun () ->
        t.members <- Types.add_member t.members id;
        (Types.Config_ok, []))
  | Types.Remove_replica { session; req; id } ->
    deduped ~data:false session req (fun () ->
        t.members <- Types.remove_member t.members id;
        (Types.Config_ok, []))

(* ------------------------------------------------------------------ *)
(* Snapshots (log compaction) *)

let freeze t =
  {
    Types.entries = t.entries;
    seq_counter = t.seq_counter;
    dedup = t.dedup;
    order_gaps = t.order_gaps;
    members = t.members;
  }

let thaw (image : Types.image) =
  {
    entries = image.entries;
    seq_counter = image.seq_counter;
    dedup = image.dedup;
    order_gaps = image.order_gaps;
    members = image.members;
  }
