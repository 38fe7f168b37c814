let log_src = Logs.Src.create "tropic.recovery" ~doc:"TROPIC fail-over recovery"

module Log = (val Logs.src_log log_src : Logs.LOG)

let load_checkpoint client ~ns =
  let rec wait () =
    match Coord.Client.get client (Proto.checkpoint_key_ns ns) with
    | Some (value, _) ->
      (match Data.Sexp.of_string value with
       | Ok (Data.Sexp.List [ seq; tree ]) ->
         (match Data.Sexp.to_int seq, Data.Tree.of_sexp tree with
          | Ok seq, Ok tree -> (seq, tree)
          | _, _ -> failwith "corrupt checkpoint")
       | Ok _ | Error _ -> failwith "corrupt checkpoint")
    | None ->
      (* The platform bootstrap has not written the initial checkpoint yet. *)
      Des.Proc.sleep 0.2;
      wait ()
  in
  wait ()

let save_checkpoint ~seq tree =
  let value =
    Data.Sexp.to_string
      (Data.Sexp.List [ Data.Sexp.of_int seq; Data.Tree.to_sexp tree ])
  in
  fun client ~ns ->
    Result.is_ok
      (Coord.Client.write client ~key:(Proto.checkpoint_key_ns ns) ~value ())

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

let replay ~name env tree ~checkpoint_seq ~shard records =
  List.filter
    (fun (txn : Txn.t) ->
      (match txn.Txn.state with
       | Txn.Started | Txn.Committed -> true
       | Txn.Initialized | Txn.Accepted | Txn.Deferred | Txn.Aborted _
       | Txn.Failed _ -> false)
      &&
      match txn.Txn.start_seq with
      | Some seq -> seq > checkpoint_seq
      | None -> false)
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
  prune : string list;
}

(* Values of the items under [prefix], parsed by [f]. *)
let scan client prefix f =
  List.filter_map
    (fun key -> Option.bind (Coord.Client.get client key) (fun (v, _) -> f v))
    (Coord.Client.get_children client prefix)

let rebuild ~name client ~ns ~shard ~checkpoint_seq ~txns ~locks ~sched ~twopc
    ~persist records =
  (* Which Started txns still need a phyQ offer: not queued, not being
     executed, and not already reported. *)
  let phy_ids = scan client (Proto.phy_queue_ns ns) int_of_string_opt in
  let result_ids =
    scan client (Proto.input_queue_ns ns) (fun v ->
        match Proto.input_of_string v with
        | Ok (Proto.Result { txn_id; _ }) -> Some txn_id
        | Ok (Proto.Request _ | Proto.Control _) | Error _ -> None)
  in
  let max_seq = ref checkpoint_seq in
  let quarantine = ref [] and prune = ref [] in
  let terminal (txn : Txn.t) =
    if Twopc.is_cross shard txn then Twopc.recover_terminal twopc txn;
    Twopc.retire twopc txn;
    prune := Txn.record_key_ns ns txn.Txn.id :: !prune
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
        else if offer then Persist.offer persist txn.Txn.id
      | Txn.Failed _ ->
        (* A failed transaction left the layers inconsistent under its
           write set; a new leader must not serve those resources until
           reconciliation.  Conservative: if the previous leader already
           reconciled but had not yet checkpointed the record away, the
           subtree needs another reload. *)
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
      0 records
  in
  {
    next_start_seq = !max_seq + 1;
    max_request_seq;
    quarantine = !quarantine;
    prune = !prune;
  }
