let log_src = Logs.Src.create "tropic.twopc" ~doc:"TROPIC cross-shard commit"

module Log = (val Logs.src_log log_src : Logs.LOG)

let participant_proc = "__2pc_participant"
let is_participant (txn : Txn.t) = String.equal txn.Txn.proc participant_proc

(* ------------------------------------------------------------------ *)
(* Keys and codecs *)

let queue sid = Printf.sprintf "/tropic/2pc/q%03d" sid
let decision_key gid = Printf.sprintf "/tropic/2pc/d%010d" gid
let finish_key gid = Printf.sprintf "/tropic/2pc/f%010d" gid

type snap = Data.Path.t * Data.Tree.node
type verdict = Committed | Rolled_back | Failed

type msg =
  | Prepare of { gid : int; coord : int; roots : Data.Path.t list }
  | Prepared of {
      gid : int;
      shard : int;
      ok : bool;
      reason : string;
      snaps : snap list;
    }
  | Decide of { gid : int; commit : bool; log : Xlog.t }
  | Finish of { gid : int; verdict : verdict }

(* One spelling for the finish marker and the Finish message. *)
let verdict_to_string = function
  | Committed -> "ok"
  | Rolled_back -> "rollback"
  | Failed -> "failed"

let verdict_of_string = function
  | "ok" -> Committed
  | "failed" -> Failed
  | _ -> Rolled_back

module Print = Data.Sexp.Print
module Read = Data.Sexp.Read

(* Codec: (prepare <gid> <coord> (<root>...)),
   (prepared <gid> <shard> ok|no <reason> ((<root> <node>)...)),
   (decide <gid> commit|abort <log>), (finish <gid> <verdict>). *)
let msg_to_string msg =
  Print.to_string (fun p ->
      Print.list p (fun p ->
          match msg with
          | Prepare { gid; coord; roots } ->
            Print.atom p "prepare";
            Print.int p gid;
            Print.int p coord;
            Print.list p (fun p -> List.iter (Data.Path.print p) roots)
          | Prepared { gid; shard; ok; reason; snaps } ->
            Print.atom p "prepared";
            Print.int p gid;
            Print.int p shard;
            Print.atom p (if ok then "ok" else "no");
            Print.atom p reason;
            Print.list p (fun p ->
                List.iter
                  (fun (path, node) ->
                    Print.list p (fun p ->
                        Data.Path.print p path;
                        Data.Tree.print p node))
                  snaps)
          | Decide { gid; commit; log } ->
            Print.atom p "decide";
            Print.int p gid;
            Print.atom p (if commit then "commit" else "abort");
            Xlog.print p log
          | Finish { gid; verdict } ->
            Print.atom p "finish";
            Print.int p gid;
            Print.atom p (verdict_to_string verdict)))

let msg_of_string =
  Read.of_string (fun r ->
      Read.enter r;
      let msg =
        match Read.atom r with
        | "prepare" ->
          let gid = Read.int r in
          let coord = Read.int r in
          Prepare { gid; coord; roots = Read.list r Data.Path.read }
        | "prepared" ->
          let gid = Read.int r in
          let shard = Read.int r in
          let ok = Read.atom r = "ok" in
          let reason = Read.atom r in
          let snaps =
            Read.list r (fun r ->
                Read.enter r;
                let path = Data.Path.read r in
                let node = Data.Tree.read r in
                Read.leave r;
                (path, node))
          in
          Prepared { gid; shard; ok; reason; snaps }
        | "decide" ->
          let gid = Read.int r in
          let commit = Read.atom r = "commit" in
          Decide { gid; commit; log = Xlog.read r }
        | "finish" ->
          let gid = Read.int r in
          Finish { gid; verdict = verdict_of_string (Read.atom r) }
        | other -> Read.fail r ("bad 2pc message: " ^ other)
      in
      Read.leave r;
      msg)

type decision = Commit of (int * Xlog.t) list | Abort

(* (abort), or (commit ((<shard> <log>)...)) *)
let decision_to_string d =
  Print.to_string (fun p ->
      Print.list p (fun p ->
          match d with
          | Abort -> Print.atom p "abort"
          | Commit slices ->
            Print.atom p "commit";
            Print.list p (fun p ->
                List.iter
                  (fun (shard, log) ->
                    Print.list p (fun p ->
                        Print.int p shard;
                        Xlog.print p log))
                  slices)))

let decision_of_string =
  Read.of_string (fun r ->
      Read.enter r;
      let d =
        match Read.atom r with
        | "abort" -> Abort
        | "commit" ->
          Commit
            (Read.list r (fun r ->
                 Read.enter r;
                 let shard = Read.int r in
                 let log = Xlog.read r in
                 Read.leave r;
                 (shard, log)))
        | other -> Read.fail r ("bad 2pc decision: " ^ other)
      in
      Read.leave r;
      d)

(* ------------------------------------------------------------------ *)
(* State *)

(* Coordinator side of one in-flight cross-shard transaction. *)
type pending = {
  participants : int list;
  mutable votes : (int * snap list) list;  (* newest first *)
  mutable is_decided : bool;
  mutable p_deadline : float;
}

(* Participant side of one shadow transaction. *)
type part = {
  coord : int;
  mutable is_applied : bool;  (* commit slice applied, awaiting Finish *)
  mutable deadline : float;
}

type t = {
  name : string;
  gclient : Coord.Client.t;
  barrier : unit -> unit;  (* runs before every write on [gclient] *)
  shard : Shard.t;
  timeout : float;
  record : bool;
  trace : Trace.t;
  st : Stats.stats;
  sim : Des.Sim.t;
  pending : (int, pending) Hashtbl.t;
  parts : (int, part) Hashtbl.t;
  mutable recovered : (Txn.t * bool) list;
      (* Started coordinator records left by recovery (flag: needs a phyQ
         offer), resolved against the decision record on the next drain *)
  mutable recovered_terminal : Txn.t list;
  tombstones : (int, Txn.state) Hashtbl.t;
      (* terminal state of every shadow that left the controller's table,
         the answer to a redelivered Prepare *)
}

let create ?(trace = Trace.off) ?(barrier = ignore) ~stats ~name ~gclient
    ~shard ~timeout ~record sim =
  {
    name;
    gclient;
    barrier;
    shard;
    timeout;
    record;
    trace;
    st = stats;
    sim;
    pending = Hashtbl.create 8;
    parts = Hashtbl.create 8;
    recovered = [];
    recovered_terminal = [];
    tombstones = Hashtbl.create 8;
  }

let sid t = t.shard.Shard.sid
let deadline t = Des.Sim.now t.sim +. t.timeout

let instant t ~txn name =
  Trace.instant t.trace ~txn ~cat:"2pc" ~name ()

let send t ~shard msg =
  t.barrier ();
  ignore
    (Coord.Recipes.enqueue t.gclient ~queue:(queue shard) (msg_to_string msg))

let send_vote t ~coord ~gid vote =
  let ok, reason, snaps =
    match vote with Ok snaps -> (true, "", snaps) | Error r -> (false, r, [])
  in
  send t ~shard:coord (Prepared { gid; shard = sid t; ok; reason; snaps })

let send_decide t ~gid participants decision =
  List.iter
    (fun shard ->
      let commit, log =
        match decision with
        | Abort -> (false, [])
        | Commit slices ->
          (true, Option.value (List.assoc_opt shard slices) ~default:[])
      in
      send t ~shard (Decide { gid; commit; log }))
    participants

let read_decision t gid =
  if not t.record then None
  else
    match Coord.Client.get t.gclient (decision_key gid) with
    | None -> None
    | Some (value, _) ->
      (match decision_of_string value with
       | Ok d -> Some d
       | Error reason ->
         Log.err (fun m ->
             m "%s: corrupt 2pc decision for %d: %s" t.name gid reason);
         None)

let propose t gid proposal =
  if not t.record then proposal
  else begin
    t.barrier ();
    match
      Coord.Client.create t.gclient ~key:(decision_key gid)
        ~value:(decision_to_string proposal) ()
    with
    | Ok _ -> proposal
    | Error _ -> Option.value (read_decision t gid) ~default:proposal
  end

let write_finish t gid verdict =
  if t.record then begin
    t.barrier ();
    ignore
      (Coord.Client.create t.gclient ~key:(finish_key gid)
         ~value:(verdict_to_string verdict) ())
  end

let read_finish t gid =
  Option.map
    (fun (value, _) -> verdict_of_string value)
    (Coord.Client.get t.gclient (finish_key gid))

let participants_of t (txn : Txn.t) =
  if t.shard.Shard.count = 1 then []
  else
    match Router.classify t.shard ~args:txn.Txn.args with
    | Router.Single _ -> []
    | Router.Cross { coord; participants } ->
      List.filter (fun s -> s <> sid t) (coord :: participants)

let is_cross shard (txn : Txn.t) =
  (not (is_participant txn))
  && shard.Shard.count > 1
  && Router.is_cross shard ~args:txn.Txn.args

let snapshots tree roots =
  List.filter_map
    (fun root ->
      match Data.Tree.subtree tree root with
      | Ok node -> Some (root, node)
      | Error _ -> None)
    roots

let graft tree snaps =
  List.fold_left
    (fun tree (path, node) ->
      match Data.Tree.replace_subtree tree path node with
      | Ok tree' -> tree'
      | Error _ -> tree)
    tree snaps

type local =
  | Admit of Txn.t
  | Revote of Txn.t
  | Apply of Txn.t * Xlog.t
  | Decide_votes of Txn.t * snap list
  | Offer of int
  | End of {
      count : bool;
      txn : Txn.t;
      state : Txn.state;
      undo : bool;
      quarantine : bool;
    }

(* Only a coordination that aborts ends its coordinator; the abort is
   client-visible, so it counts. *)
let end_coord t ~local ?(undo = false) txn reason =
  local
    (End
       { count = true; txn; state = Txn.Aborted reason; undo; quarantine = false });
  t.st.twopc_aborted <- t.st.twopc_aborted + 1

(* ------------------------------------------------------------------ *)
(* Coordinator *)

let prepare t (txn : Txn.t) ~participants =
  let gid = txn.Txn.id in
  Hashtbl.replace t.pending gid
    { participants; votes = []; is_decided = false; p_deadline = deadline t };
  instant t ~txn:gid "2pc-prepare";
  List.iter
    (fun shard ->
      let roots =
        Router.arg_paths txn.Txn.args
        |> List.filter (fun p -> Shard.owner_of t.shard p = shard)
        |> List.sort_uniq Data.Path.compare
      in
      send t ~shard (Prepare { gid; coord = sid t; roots }))
    participants;
  t.st.twopc_started <- t.st.twopc_started + 1

let refuse t ~local txn reason = end_coord t ~local txn reason

let abort t ~local (txn : Txn.t) reason =
  let gid = txn.Txn.id in
  (match Hashtbl.find_opt t.pending gid with
   | Some p ->
     Hashtbl.remove t.pending gid;
     ignore (propose t gid Abort);
     send_decide t ~gid p.participants Abort
   | None -> ());
  instant t ~txn:gid "2pc-abort";
  end_coord t ~local txn reason

let permitted t gid shard =
  shard = sid t
  ||
  match Hashtbl.find_opt t.pending gid with
  | Some p -> List.mem shard p.participants
  | None -> false

let commit_point t ~local (txn : Txn.t) log =
  let gid = txn.Txn.id in
  let p = Hashtbl.find t.pending gid in
  let slices =
    List.map
      (fun shard ->
        (shard, Xlog.slice log ~keep:(fun path -> Shard.owner_of t.shard path = shard)))
      p.participants
  in
  match propose t gid (Commit slices) with
  | Abort ->
    (* A timed-out participant presumed abort first; obey the record.  The
       tree was never applied, so nothing rolls back. *)
    Hashtbl.remove t.pending gid;
    instant t ~txn:gid "2pc-abort";
    end_coord t ~local txn "2pc decision lost to presumed abort";
    send_decide t ~gid p.participants Abort;
    None
  | Commit _ ->
    p.is_decided <- true;
    p.p_deadline <- deadline t;
    instant t ~txn:gid "2pc-decide-commit";
    t.st.twopc_committed <- t.st.twopc_committed + 1;
    Some slices

let announce t gid slices =
  match Hashtbl.find_opt t.pending gid with
  | Some p -> send_decide t ~gid p.participants (Commit slices)
  | None -> ()

let verdict_of_state = function
  | Txn.Committed -> Committed
  | Txn.Failed _ -> Failed
  | Txn.Initialized | Txn.Accepted | Txn.Deferred | Txn.Started | Txn.Aborted _ ->
    Rolled_back

let is_decided t gid = Option.map (fun p -> p.is_decided) (Hashtbl.find_opt t.pending gid)
let preparing t gid = is_decided t gid = Some false
let decided t gid = is_decided t gid = Some true

let finish t gid state =
  match Hashtbl.find_opt t.pending gid with
  | None -> ()
  | Some p ->
    let verdict = verdict_of_state state in
    Hashtbl.remove t.pending gid;
    write_finish t gid verdict;
    instant t ~txn:gid "2pc-finish";
    List.iter (fun shard -> send t ~shard (Finish { gid; verdict })) p.participants

(* Run [f] on the entry of [gid] in [table] and its transaction; an entry
   whose transaction is gone is forgotten. *)
let tracked table ~txns gid f =
  match Hashtbl.find_opt table gid with
  | None -> false
  | Some entry ->
    (match Hashtbl.find_opt txns gid with
     | None ->
       Hashtbl.remove table gid;
       false
     | Some txn -> f entry txn)

(* Coordinator receives a vote; an unknown gid was already decided or
   aborted, and the record arbitrates. *)
let handle_prepared t ~txns ~local ~gid ~shard ~ok ~reason ~snaps =
  tracked t.pending ~txns gid (fun p txn ->
      if p.is_decided then false
      else if not ok then begin
        abort t ~local txn
          (Printf.sprintf "shard %d refused prepare: %s" shard reason);
        true
      end
      else if List.mem_assoc shard p.votes then false
      else begin
        p.votes <- (shard, snaps) :: p.votes;
        if List.length p.votes = List.length p.participants then begin
          local (Decide_votes (txn, List.concat_map snd p.votes));
          true
        end
        else false
      end)

(* ------------------------------------------------------------------ *)
(* Participant *)

let coordinator t gid =
  Option.map (fun part -> part.coord) (Hashtbl.find_opt t.parts gid)

let vote t gid result =
  match Hashtbl.find_opt t.parts gid with
  | None -> ()
  | Some part ->
    (match result with
     | Ok _ ->
       t.st.twopc_prepares <- t.st.twopc_prepares + 1;
       part.deadline <- deadline t;
       instant t ~txn:gid "2pc-prepared"
     | Error _ -> Hashtbl.remove t.parts gid);
    send_vote t ~coord:part.coord ~gid result

let revote t (txn : Txn.t) snaps =
  Option.iter
    (fun coord -> send_vote t ~coord ~gid:txn.Txn.id (Ok snaps))
    (coordinator t txn.Txn.id)

let applied t gid =
  Option.iter
    (fun part ->
      part.is_applied <- true;
      part.deadline <- deadline t;
      instant t ~txn:gid "2pc-applied")
    (Hashtbl.find_opt t.parts gid)

(* Participant-side endings forget the part before the controller ends the
   shadow transaction. *)
let end_part t ~local ?(undo = false) ?(quarantine = false) (txn : Txn.t)
    state =
  Hashtbl.remove t.parts txn.Txn.id;
  local (End { count = false; txn; state; undo; quarantine })

(* The coordinator's verdict, mirrored: an applied slice rolls back through
   the ordinary undo machinery, and a failed one is quarantined as well. *)
let end_with_verdict t ~local txn (part : part) verdict =
  match verdict with
  | Committed -> end_part t ~local txn Txn.Committed
  | Rolled_back ->
    end_part t ~local ~undo:part.is_applied txn
      (Txn.Aborted "2pc physical rollback")
  | Failed ->
    end_part t ~local ~undo:part.is_applied ~quarantine:true txn
      (Txn.Failed "2pc physical failure")

(* Participant receives a Prepare.  First delivery spawns the shadow
   transaction; redeliveries (process-then-delete, coordinator retry after
   fail-over) re-vote from current state, or from the tombstone of a
   shadow that already ended. *)
let handle_prepare t ~txns ~local ~gid ~coord ~roots =
  match (Hashtbl.find_opt txns gid, Hashtbl.find_opt t.tombstones gid) with
  | Some (txn : Txn.t), _ ->
    (match Hashtbl.find_opt t.parts gid with
     | Some part when txn.Txn.state = Txn.Started && not part.is_applied ->
       local (Revote txn)
     | Some _ | None -> ());
    false
  | None, Some (Txn.Aborted reason) ->
    send_vote t ~coord ~gid (Error reason);
    false
  | None, Some _ -> false
  | None, None ->
    let args =
      List.map (fun p -> Data.Value.Str (Data.Path.to_string p)) roots
    in
    let txn =
      Txn.make ~id:gid ~proc:participant_proc ~args
        ~submitted_at:(Des.Sim.now t.sim)
    in
    txn.Txn.state <- Txn.Accepted;
    Hashtbl.replace t.parts gid
      { coord; is_applied = false; deadline = deadline t };
    local (Admit txn);
    true

let retire t (txn : Txn.t) =
  if is_participant txn then Hashtbl.replace t.tombstones txn.Txn.id txn.Txn.state

(* Participant receives the decision. *)
let handle_decide t ~txns ~local ~gid ~commit ~log =
  tracked t.parts ~txns gid (fun part (txn : Txn.t) ->
      if not commit then begin
        (if part.is_applied || txn.Txn.state = Txn.Started then
           end_part t ~local ~undo:part.is_applied txn (Txn.Aborted "2pc abort")
         else
           (* Still queued: drop before it ever votes. *)
           end_part t ~local txn (Txn.Aborted "2pc abort before prepare"));
        true
      end
      else begin
        if txn.Txn.state = Txn.Started && not part.is_applied then
          local (Apply (txn, log));
        false
      end)

(* Participant receives the physical verdict. *)
let handle_finish t ~txns ~local ~gid ~verdict =
  tracked t.parts ~txns gid (fun part txn ->
      end_with_verdict t ~local txn part verdict;
      true)

(* ------------------------------------------------------------------ *)
(* Deadlines and recovery *)

(* Presumed abort: a coordinator stuck gathering votes aborts outright; a
   prepared participant that waited too long closes the race by creating
   the decision record as Abort itself — if the create loses, it obeys the
   commit it reads (applying its slice from the record's payload). *)
let check_timeouts t ~txns ~local =
  let now = Des.Sim.now t.sim in
  let due table expired =
    Hashtbl.fold (fun gid e acc -> if expired e then gid :: acc else acc) table []
  in
  let coords =
    List.filter
      (fun gid ->
        tracked t.pending ~txns gid (fun _ txn ->
            abort t ~local txn "2pc prepare timed out";
            true))
      (due t.pending (fun p -> (not p.is_decided) && now >= p.p_deadline))
  in
  let parts =
    List.filter
      (fun gid ->
        tracked t.parts ~txns gid (fun part (txn : Txn.t) ->
            if txn.Txn.state <> Txn.Started then begin
              (* Not yet voted (queued or lock-parked): nothing to presume. *)
              part.deadline <- now +. t.timeout;
              false
            end
            else if not part.is_applied then (
              match propose t gid Abort with
              | Abort ->
                instant t ~txn:gid "2pc-presume-abort";
                end_part t ~local txn (Txn.Aborted "2pc presumed abort");
                t.st.twopc_aborted <- t.st.twopc_aborted + 1;
                true
              | Commit slices ->
                let log =
                  Option.value (List.assoc_opt (sid t) slices) ~default:[]
                in
                local (Apply (txn, log));
                false)
            else
              match read_finish t gid with
              | Some verdict ->
                end_with_verdict t ~local txn part verdict;
                true
              | None ->
                part.deadline <- now +. t.timeout;
                false))
      (due t.parts (fun part -> now >= part.deadline))
  in
  coords <> [] || parts <> []

let recover_participant t (txn : Txn.t) ~started =
  (* A voted shadow gets an already-expired deadline, so the first drain
     consults the decision record. *)
  Hashtbl.replace t.parts txn.Txn.id
    {
      coord = Proto.shard_of_txn ~shards:t.shard.Shard.count txn.Txn.id;
      is_applied = started && txn.Txn.log <> [];
      deadline = (if started then Des.Sim.now t.sim else deadline t);
    }

let recover_coordinator t txn ~offer = t.recovered <- (txn, offer) :: t.recovered
let recover_terminal t txn = t.recovered_terminal <- txn :: t.recovered_terminal

(* Cross-shard transactions a new leader inherited: terminal coordinators
   send their verdict to every participant again (they may never have
   heard it); in-flight ones resolve against the decision record — missing
   means presumed abort. *)
let resolve_recovered t ~local =
  let inflight = t.recovered in
  t.recovered <- [];
  let terminal = t.recovered_terminal in
  t.recovered_terminal <- [];
  List.iter
    (fun (txn : Txn.t) ->
      let gid = txn.Txn.id in
      let verdict = verdict_of_state txn.Txn.state in
      write_finish t gid verdict;
      List.iter
        (fun shard -> send t ~shard (Finish { gid; verdict }))
        (participants_of t txn))
    terminal;
  let progressed = ref false in
  List.iter
    (fun ((txn : Txn.t), offer) ->
      let gid = txn.Txn.id in
      let participants = participants_of t txn in
      let commit slices =
        Hashtbl.replace t.pending gid
          { participants; votes = []; is_decided = true; p_deadline = deadline t };
        send_decide t ~gid participants (Commit slices);
        if offer then local (Offer gid)
      in
      let abort () =
        (* Recovery replayed this coordinator's own slice into the tree;
           undo exactly that slice. *)
        txn.Txn.log <- Xlog.slice txn.Txn.log ~keep:(Shard.owns t.shard);
        instant t ~txn:gid "2pc-recovery-abort";
        end_coord t ~local ~undo:true txn "2pc presumed abort on recovery";
        send_decide t ~gid participants Abort;
        progressed := true
      in
      match read_decision t gid with
      | Some (Commit slices) -> commit slices
      | Some Abort -> abort ()
      | None ->
        (match propose t gid Abort with
         | Commit slices -> commit slices
         | Abort -> abort ()))
    inflight;
  !progressed

let drain t ~txns ~local =
  if t.shard.Shard.count = 1 then false
  else begin
    let progressed = ref (resolve_recovered t ~local) in
    let mailbox = queue (sid t) in
    let rec loop () =
      match Coord.Client.children_values t.gclient mailbox 1 with
      | [] -> ()
      | (key, payload) :: _ ->
        let moved =
          match msg_of_string payload with
          | Error reason ->
            Log.err (fun m -> m "%s: bad 2pc item %s: %s" t.name key reason);
            false
          | Ok (Prepare { gid; coord; roots }) ->
            handle_prepare t ~txns ~local ~gid ~coord ~roots
          | Ok (Prepared { gid; shard; ok; reason; snaps }) ->
            handle_prepared t ~txns ~local ~gid ~shard ~ok ~reason ~snaps
          | Ok (Decide { gid; commit; log }) ->
            handle_decide t ~txns ~local ~gid ~commit ~log
          | Ok (Finish { gid; verdict }) ->
            handle_finish t ~txns ~local ~gid ~verdict
        in
        if moved then progressed := true;
        t.barrier ();
        ignore (Coord.Client.delete t.gclient ~key ());
        loop ()
    in
    loop ();
    if check_timeouts t ~txns ~local then progressed := true;
    !progressed
  end
