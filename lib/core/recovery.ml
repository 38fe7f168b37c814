let log_src = Logs.Src.create "tropic.recovery" ~doc:"TROPIC fail-over recovery"

module Log = (val Logs.src_log log_src : Logs.LOG)

type checkpoint = {
  seq : int;
  tree : Data.Tree.t;
  max_request_seq : int;
  quarantine : Data.Path.t list;
  started : int list;
}

let ( let* ) r f = Result.bind r f

let corrupt what = function
  | Ok v -> v
  | Error reason -> failwith (Printf.sprintf "corrupt checkpoint %s: %s" what reason)

module Print = Data.Sexp.Print
module Read = Data.Sexp.Read

(* Codec: the base is (<seq> <node>), an overlay (<root> <node>), the meta
   ((seq <n>) (max_request_seq <n>) (quarantine (<path>...)) (started (<n>...))). *)
let base_of_string =
  Read.of_string (fun r ->
      Read.enter r;
      let seq = Read.int r in
      let tree = Data.Tree.read r in
      Read.leave r;
      (seq, tree))

let base_to_string ~seq tree =
  Print.to_string (fun p ->
      Print.list p (fun p ->
          Print.int p seq;
          Data.Tree.print p tree))

let overlay_to_string root node =
  Print.to_string (fun p ->
      Print.list p (fun p ->
          Data.Path.print p root;
          Data.Tree.print p node))

let apply_overlay tree value =
  let* path, node =
    Read.of_string
      (fun r ->
        Read.enter r;
        let path = Data.Path.read r in
        let node = Data.Tree.read r in
        Read.leave r;
        (path, node))
      value
  in
  Result.map_error Data.Tree.error_to_string
    (Data.Tree.replace_subtree tree path node)

let meta_to_string c =
  Print.to_string (fun p ->
      Print.list p (fun p ->
          Print.field p "seq" (fun p -> Print.int p c.seq);
          Print.field p "max_request_seq" (fun p -> Print.int p c.max_request_seq);
          Print.field p "quarantine" (fun p ->
              Print.list p (fun p -> List.iter (Data.Path.print p) c.quarantine));
          Print.field p "started" (fun p ->
              Print.list p (fun p -> List.iter (Print.int p) c.started))))

(* The meta value over [tree]. *)
let with_meta tree =
  Read.of_string (fun r ->
      Read.enter r;
      let seq = Read.field r "seq" Read.int in
      let max_request_seq = Read.field r "max_request_seq" Read.int in
      let quarantine =
        Read.field r "quarantine" (fun r -> Read.list r Data.Path.read)
      in
      let started = Read.field r "started" (fun r -> Read.list r Read.int) in
      Read.leave r;
      { seq; tree; max_request_seq; quarantine; started })

let load_checkpoint client ~ns =
  let base_key = Proto.checkpoint_key_ns ns
  and meta_key = Proto.checkpoint_meta_key_ns ns in
  let rec read () =
    match
      Coord.Client.children_values client (Proto.checkpoint_prefix_ns ns) max_int
    with
    | (key, value) :: rest when String.equal key base_key -> (value, rest)
    | _ ->
      (* The platform bootstrap has not written the base yet. *)
      Des.Proc.sleep 0.2;
      read ()
  in
  let base, rest = read () in
  let seq, tree = corrupt "base" (base_of_string base) in
  let meta, overlays =
    match rest with
    | (key, value) :: overlays when String.equal key meta_key ->
      (Some value, overlays)
    | overlays -> (None, overlays)
  in
  let tree =
    List.fold_left
      (fun tree (key, value) -> corrupt key (apply_overlay tree value))
      tree overlays
  in
  match meta with
  | Some value -> corrupt "meta" (with_meta tree value)
  | None -> { seq; tree; max_request_seq = 0; quarantine = []; started = [] }

let save_checkpoint ~seq tree =
  let value = base_to_string ~seq tree in
  fun client ~ns ->
    Result.is_ok
      (Coord.Client.write client ~key:(Proto.checkpoint_key_ns ns) ~value ())

exception Outside

(* The device roots whose subtree in [tree] is not physically the one in
   [prev], with that subtree; [None] when a node outside every device
   root changed.  The walk descends only into nodes that differ, so its
   cost follows the changed spine and the fan-out of the nodes on it. *)
let changed_roots ~is_root prev tree =
  let rec walk path (a : Data.Tree.node) (b : Data.Tree.node) acc =
    if a == b then acc
    else if is_root path then (path, b) :: acc
    else if
      (not (String.equal a.Data.Tree.kind b.Data.Tree.kind))
      || not (Data.Tree.attrs_equal a b)
    then raise Outside
    else begin
      let matched = ref 0 in
      let acc =
        Data.Tree.Smap.fold
          (fun name child acc ->
            match Data.Tree.Smap.find_opt name a.Data.Tree.children with
            | None -> raise Outside
            | Some old ->
              incr matched;
              walk (Data.Path.child path name) old child acc)
          b.Data.Tree.children acc
      in
      if !matched <> Data.Tree.Smap.cardinal a.Data.Tree.children then
        raise Outside;
      acc
    end
  in
  match walk Data.Path.root prev tree [] with
  | roots -> Some (List.rev roots)
  | exception Outside -> None

let write key value = Coord.Types.Op_write { key; value; expect_version = None }
let delete key = Coord.Types.Op_delete { key; expect_version = None }

(* Terminal records between two checkpoints.  Each checkpoint rewrites
   the device roots changed since the last one, so a larger period writes
   a hot root less often per txn; a smaller one keeps fewer folded records
   in the store.  64 keeps the folded records under ~64 KB. *)
let checkpoint_period = 64

type ledger = {
  name : string;
  ns : string;
  shard : Shard.t;
  persist : Persist.t;
  is_root : Data.Path.t -> bool;
  on_prune : (int * Txn.state) list -> unit;
  mutable prev : Data.Tree.t;  (* the tree of the last checkpoint *)
  mutable folded : (int * Txn.state) list;
      (* terminal records the next checkpoint prunes, newest first *)
  mutable requested : bool;
}

let ledger ~name ~ns ~shard ~persist ~on_prune =
  let roots = shard.Shard.assignment in
  let table = Hashtbl.create (List.length roots) in
  List.iter (fun (root, _) -> Hashtbl.replace table root ()) roots;
  {
    name;
    ns;
    shard;
    persist;
    is_root = Hashtbl.mem table;
    on_prune;
    prev = Data.Tree.empty;
    folded = [];
    requested = false;
  }

(* A cross-shard record stays in the store: a participant's record is
   what rebuilds its Twopc tombstone on a new leader, and a coordinator's
   is what makes a new leader resend its verdict. *)
let fold l (txn : Txn.t) =
  if not (Twopc.is_participant txn || Twopc.is_cross l.shard txn) then
    l.folded <- (txn.Txn.id, txn.Txn.state) :: l.folded

let request_checkpoint l = l.requested <- true

let due l =
  l.requested || List.compare_length_with l.folded checkpoint_period >= 0

let checkpoint_ops l c =
  let ns = l.ns in
  let meta = write (Proto.checkpoint_meta_key_ns ns) (meta_to_string c) in
  match changed_roots ~is_root:l.is_root l.prev c.tree with
  | Some changed ->
    List.map
      (fun (root, node) ->
        write (Proto.overlay_key_ns ns root) (overlay_to_string root node))
      changed
    @ [ meta ]
  | None ->
    (* Something outside the device roots changed: a new base, and no
       overlay over it. *)
    (write (Proto.checkpoint_key_ns ns) (base_to_string ~seq:c.seq c.tree)
     :: List.map (fun (root, _) -> delete (Proto.overlay_key_ns ns root))
          l.shard.Shard.assignment)
    @ [ meta ]

(* The pruned outcomes go to [on_prune] first, so a reader finds one or
   the other. *)
let checkpoint l ~seq ~max_request_seq ~quarantine ~started tree =
  let c = { seq; tree; max_request_seq; quarantine; started } in
  let folded = List.rev l.folded in
  l.on_prune folded;
  Persist.append l.persist
    (checkpoint_ops l c
    @ List.map (fun (id, _) -> delete (Txn.record_key_ns l.ns id)) folded);
  l.prev <- tree;
  l.folded <- [];
  l.requested <- false;
  Log.info (fun m ->
      m "%s: checkpoint at start_seq %d, %d records pruned" l.name seq
        (List.length folded))

let apply_log ~name ~what env tree (txn : Txn.t) log =
  List.fold_left
    (fun tree record ->
      match Dsl.apply_record env tree record with
      | Ok tree' -> tree'
      | Error reason ->
        Log.err (fun m ->
            m "%s: %s for txn %d failed: %s" name what txn.Txn.id reason);
        tree)
    tree log

let records ~name client ~ns =
  List.filter_map
    (fun key ->
      match Coord.Client.get client key with
      | None -> None
      | Some (value, _) ->
        (match Txn.of_string value with
         | Ok txn -> Some txn
         | Error reason ->
           Log.err (fun m -> m "%s: corrupt record %s: %s" name key reason);
           None))
    (Coord.Client.get_children client (Proto.txns_prefix_ns ns))

let replay ~name env (c : checkpoint) ~shard records =
  let beyond (txn : Txn.t) =
    match txn.Txn.start_seq with Some seq -> seq > c.seq | None -> false
  in
  (* Started when the checkpoint was taken, and rolled back since: its
     effects are in the checkpoint's tree, so undo them, newest first, as
     the leader did (an undo that cannot apply left that tree as it was). *)
  let undone =
    List.filter
      (fun (txn : Txn.t) ->
        (match txn.Txn.state with
         | Txn.Aborted _ | Txn.Failed _ -> true
         | Txn.Initialized | Txn.Accepted | Txn.Deferred | Txn.Started
         | Txn.Committed -> false)
        && (not (beyond txn))
        && List.mem txn.Txn.id c.started)
      records
    |> List.sort (fun (a : Txn.t) b -> compare b.Txn.start_seq a.Txn.start_seq)
  in
  let tree =
    List.fold_left
      (fun tree (txn : Txn.t) ->
        match Logical.rollback env ~tree ~log:txn.Txn.log with
        | Ok tree -> tree
        | Error (index, reason) ->
          Log.err (fun m ->
              m "%s: recovery undo #%d for txn %d failed: %s" name index
                txn.Txn.id reason);
          tree)
      c.tree undone
  in
  List.filter
    (fun (txn : Txn.t) ->
      (match txn.Txn.state with
       | Txn.Started | Txn.Committed -> true
       | Txn.Initialized | Txn.Accepted | Txn.Deferred | Txn.Aborted _
       | Txn.Failed _ -> false)
      && beyond txn)
    records
  |> List.sort (fun (a : Txn.t) b -> compare a.Txn.start_seq b.Txn.start_seq)
  |> List.fold_left
       (fun tree (txn : Txn.t) ->
         let log =
           if Twopc.is_cross shard txn then
             Xlog.slice txn.Txn.log ~keep:(Shard.owns shard)
           else txn.Txn.log
         in
         apply_log ~name ~what:"recovery replay" env tree txn log)
       tree

type t = {
  next_start_seq : int;
  max_request_seq : int;
  quarantine : Data.Path.t list;
}

(* Values of the items under [prefix], parsed by [f]. *)
let scan client prefix f =
  List.filter_map
    (fun key -> Option.bind (Coord.Client.get client key) (fun (v, _) -> f v))
    (Coord.Client.get_children client prefix)

let rebuild l client ~(checkpoint : checkpoint) ~txns ~locks ~sched ~twopc
    records =
  let name = l.name and ns = l.ns and shard = l.shard in
  l.prev <- checkpoint.tree;
  (* Which Started txns still need a phyQ offer: not queued, not being
     executed, and not already reported. *)
  let phy_ids = scan client (Proto.phy_queue_ns ns) int_of_string_opt in
  let result_ids =
    scan client (Proto.input_queue_ns ns) (fun v ->
        match Proto.input_of_string v with
        | Ok (Proto.Result { txn_id; _ }) -> Some txn_id
        | Ok (Proto.Request _ | Proto.Control _) | Error _ -> None)
  in
  let max_seq = ref checkpoint.seq in
  let quarantine = ref checkpoint.quarantine in
  let terminal (txn : Txn.t) =
    if Twopc.is_cross shard txn then Twopc.recover_terminal twopc txn;
    Twopc.retire twopc txn;
    fold l txn
  in
  List.iter
    (fun (txn : Txn.t) ->
      (match txn.Txn.start_seq with
       | Some seq when seq > !max_seq -> max_seq := seq
       | Some _ | None -> ());
      match txn.Txn.state with
      | Txn.Accepted | Txn.Deferred ->
        (* Re-derive the blocked set rather than persist it: the txn goes
           back to the ready queue and the first post-recovery drain either
           starts it or re-parks it on its (rebuilt) conflict.  (A queued
           cross-shard coordinator simply re-runs its prepare round — the
           decision record arbitrates against any earlier attempt.) *)
        Hashtbl.replace txns txn.Txn.id txn;
        if Twopc.is_participant txn then
          Twopc.recover_participant twopc txn ~started:false;
        Sched.submit sched txn
      | Txn.Started ->
        Hashtbl.replace txns txn.Txn.id txn;
        (match Mglock.try_acquire locks ~txn:txn.Txn.id txn.Txn.locks with
         | Ok () -> ()
         | Error conflict ->
           Log.err (fun m ->
               m "%s: recovery lock conflict for txn %d: %a" name txn.Txn.id
                 Mglock.pp_conflict conflict));
        let executing =
          Option.is_some
            (Coord.Client.get client (Proto.executing_key_ns ns txn.Txn.id))
        in
        let offer =
          (not executing)
          && (not (List.mem txn.Txn.id phy_ids))
          && not (List.mem txn.Txn.id result_ids)
        in
        (* A voted shadow is never physical; an in-flight coordinator is
           resolved against the decision record on the first 2PC drain. *)
        if Twopc.is_participant txn then
          Twopc.recover_participant twopc txn ~started:true
        else if Twopc.is_cross shard txn then
          Twopc.recover_coordinator twopc txn ~offer
        else if offer then Persist.offer l.persist txn.Txn.id
      | Txn.Failed _ ->
        (* A failed transaction left the layers inconsistent under its
           write set; a new leader must not serve those resources until
           reconciliation.  Conservative: if the previous leader already
           reconciled but had not yet checkpointed the record away, the
           subtree needs another reload.  Failed records a checkpoint
           folded in left their paths in its quarantine set. *)
        quarantine := Txn.write_paths txn @ !quarantine;
        terminal txn
      | Txn.Committed | Txn.Aborted _ -> terminal txn
      | Txn.Initialized -> ())
    (List.sort (fun (a : Txn.t) b -> compare a.Txn.id b.Txn.id) records);
  (* Only this shard's own request stream advances the redelivery
     watermark: participant shadow records carry the coordinator's gid —
     a different residue class, numbered by a different submitter — and
     letting one of those (often far larger) ids in would make the new
     leader silently drop every later locally-numbered request as a
     redelivery. *)
  let max_request_seq =
    List.fold_left
      (fun acc (txn : Txn.t) ->
        if txn.Txn.id mod shard.Shard.count = shard.Shard.sid && txn.Txn.id > acc
        then txn.Txn.id
        else acc)
      checkpoint.max_request_seq records
  in
  {
    next_start_seq = !max_seq + 1;
    max_request_seq;
    quarantine = !quarantine;
  }
