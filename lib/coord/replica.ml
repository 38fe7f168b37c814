let log_src = Logs.Src.create "coord.replica" ~doc:"coordination replica"

module Log = (val Logs.src_log log_src : Logs.LOG)

type role = Follower | Candidate | Leader

type session_info = { mutable last_seen : float; mutable timeout : float }

(* A learner being caught up before it may count toward quorum: the leader
   replicates to it like any peer, and once its match index reaches
   [target] (the leader's last index when the join was requested) the
   deferred [Add_replica] entry is appended and the configuration actually
   changes — Raft §4.2.1's non-voting catch-up phase. *)
type join = {
  target : int;
  add_cmd : Types.cmd;
  reply_to : int * int; (* client node, req_id *)
}

(* Leader-side replication progress, one entry per target node id —
   voting peers of the effective configuration plus any learners.  The
   table replaces the old fixed [next_index]/[match_index] arrays, so
   membership can grow and shrink at runtime. *)
type progress = {
  mutable next : int;
  mutable match_ : int;
  mutable pending_join : join option;
}

(* One client command parked in the group-commit batch.  [b_acked] marks
   commands already answered at enqueue (the unsafe-ack ablation): they
   must not be answered again when the batch bounces or commits. *)
type batch_item = {
  b_client : int;
  b_req : int;
  b_cmd : Types.cmd;
  b_acked : bool;
}

type t = {
  rid : int;
  net : Types.msg Des.Net.t;
  base_members : int list; (* canonical boot configuration *)
  boot_voting : bool;      (* false iff created as a learner *)
  stats : Types.membership_stats;
  gstats : Types.group_stats;
  config : Types.config;
  (* State that survives a crash (stable storage). *)
  mutable term : int;
  mutable voted_for : int option;
  mutable log : Types.log_entry Vec.t;
      (* element 0 is a sentinel standing for absolute index [log_base];
         absolute index i lives at [i - log_base] *)
  mutable log_base : int;
  mutable snapshot : (int * int * string) option;
      (* (last_included_index, last_included_term, serialized store);
         stable storage, like term/vote/log *)
  (* Effective membership: the latest configuration entry present in the
     log (committed or not — effective on append, Raft §4), on top of the
     configuration the snapshot/boot base carries. *)
  mutable members : int list;
  mutable config_index : int;
      (* log index the effective configuration took effect at; part of
         the replication session id *)
  mutable snapshot_members : int list; (* configuration as of [log_base] *)
  mutable config_base : int;           (* identifier for that base config *)
  mutable voting : bool;
      (* a learner may not campaign until it has seen evidence of its own
         membership (its Add entry, or a snapshot listing it) — otherwise
         a freshly re-added empty node would disrupt elections *)
  (* Volatile state. *)
  mutable role : role;
  mutable leader_hint : int option;
  mutable commit_index : int;
  mutable last_applied : int;
  mutable applied_ops : int;
      (* store ops in the applied entries past [log_base]; compaction
         counts these, not entries *)
  mutable machine : Store.t;
  progress : (int, progress) Hashtbl.t;
  mutable votes : int list;
  mutable election_deadline : float;
  pending : (int, int * int) Hashtbl.t; (* log index -> client node, req_id *)
  sessions : (int, session_info) Hashtbl.t;
  key_watches : (string, (int, unit) Hashtbl.t) Hashtbl.t;
  child_watches : (string, (int, unit) Hashtbl.t) Hashtbl.t;
  mutable station : Des.Station.t;
  (* Group-commit batcher (leader-only).  Commands are consed on in arrival
     order and reversed at flush, so log order preserves submit order. *)
  mutable batch : batch_item list;
  mutable batch_len : int;
  mutable batch_deadline : float;
  mutable batch_signal : unit Des.Channel.t;
      (* one token per empty->nonempty transition; wakes the timeout
         flusher *)
  mutable stop_requested : bool;
  mutable procs : Des.Proc.t list;
}

let sim r = Des.Net.sim r.net
let now r = Des.Sim.now (sim r)
let is_leader r = r.role = Leader
let term r = r.term
let log_length r = Vec.length r.log - 1
let log_base r = r.log_base
let has_snapshot r = Option.is_some r.snapshot
let store r = r.machine
let station_busy_time r = Des.Station.busy_time r.station
let members r = r.members
let is_member r = Types.member r.members r.rid
let quorum r = Types.quorum_of r.members
let last_log_index r = r.log_base + Vec.length r.log - 1
let entry_at r i = Vec.get r.log (i - r.log_base)
let term_at r i = (entry_at r i).Types.term

let entry r i =
  if i > r.log_base && i <= last_log_index r then Some (entry_at r i).Types.cmd
  else None

let progress_snapshot r =
  Hashtbl.fold (fun peer p acc -> (peer, p.match_) :: acc) r.progress []
  |> List.sort compare

(* The replication session this leader is currently running: its vote
   (term × id) crossed with the membership log id.  Any append reply
   echoing a different session belongs to an earlier configuration or
   term and must not touch progress tracking. *)
let current_session r =
  { Types.s_term = r.term; s_leader = r.rid; s_mlog = r.config_index }

let reset_election_deadline r =
  let base = Types.election_timeout in
  let jitter = Des.Dist.uniform (Des.Sim.rng (sim r)) ~lo:0. ~hi:base in
  r.election_deadline <- now r +. base +. jitter

let voting_peers r = Types.remove_member r.members r.rid

(* Everyone the leader replicates to: voting peers plus learners. *)
let replication_targets r =
  Hashtbl.fold (fun peer _ acc -> peer :: acc) r.progress []

let send_peer r dst pm = Des.Net.send r.net ~src:r.rid ~dst (Types.Peer pm)

let send_resp r dst ~req_id response =
  Des.Net.send r.net ~src:r.rid ~dst (Types.Client_resp { req_id; response })

let not_leader r = Types.Not_leader { hint = r.leader_hint; members = r.members }

(* ------------------------------------------------------------------ *)
(* Membership tracking (effective on append) *)

(* Incremental update for an entry just appended at [index]. *)
let note_config_append r index (cmd : Types.cmd) =
  match cmd with
  | Types.Add_replica { id; _ } ->
    r.members <- Types.add_member r.members id;
    r.config_index <- index;
    if id = r.rid then r.voting <- true
  | Types.Remove_replica { id; _ } ->
    r.members <- Types.remove_member r.members id;
    r.config_index <- index
  | Types.Create _ | Types.Write _ | Types.Delete _ | Types.Multi _
  | Types.Expire_session _ | Types.Noop ->
    ()

(* Recompute from scratch: base configuration at [log_base], then every
   configuration entry in the retained log.  Needed after a conflicting
   suffix was truncated below [config_index] and on restart. *)
let rescan_membership r =
  let members = ref r.snapshot_members in
  let cidx = ref r.config_base in
  let voting =
    ref
      (r.boot_voting
      || (r.config_base > 0 && Types.member r.snapshot_members r.rid))
  in
  for i = r.log_base + 1 to last_log_index r do
    match (entry_at r i).Types.cmd with
    | Types.Add_replica { id; _ } ->
      members := Types.add_member !members id;
      cidx := i;
      if id = r.rid then voting := true
    | Types.Remove_replica { id; _ } ->
      members := Types.remove_member !members id;
      cidx := i
    | Types.Create _ | Types.Write _ | Types.Delete _ | Types.Multi _
    | Types.Expire_session _ | Types.Noop ->
      ()
  done;
  r.members <- !members;
  r.config_index <- !cidx;
  r.voting <- !voting

(* A configuration change may be proposed only when none is in flight:
   the latest config entry is committed and no learner is catching up
   (single-server changes, Raft §4.1). *)
let config_change_pending r =
  r.config_index > r.commit_index
  || Hashtbl.fold
       (fun _ p acc -> acc || p.pending_join <> None)
       r.progress false

(* ------------------------------------------------------------------ *)
(* Sessions and watches (leader-local) *)

let touch_session ?timeout r session =
  let default = r.config.Types.default_session_timeout in
  (* Clamp to a sane positive range (mirrors Fault.set_probability): NaN
     makes every expiry comparison false — an immortal session — and a
     non-positive timeout expires the session at the next reaper tick
     while its client is still alive. *)
  let timeout =
    match timeout with
    | None -> default
    | Some t when Float.is_nan t || t <= 0. -> default
    | Some t -> Float.min t 86_400.
  in
  match Hashtbl.find_opt r.sessions session with
  | Some info ->
    info.last_seen <- now r;
    info.timeout <- timeout
  | None -> Hashtbl.replace r.sessions session { last_seen = now r; timeout }

let add_watch table target session =
  let sessions =
    match Hashtbl.find_opt table target with
    | Some s -> s
    | None ->
      let s = Hashtbl.create 4 in
      Hashtbl.replace table target s;
      s
  in
  Hashtbl.replace sessions session ()

let fire_watch_table r table target kind =
  match Hashtbl.find_opt table target with
  | None -> ()
  | Some sessions ->
    Hashtbl.remove table target;
    Hashtbl.iter
      (fun session () ->
        Des.Net.send r.net ~src:r.rid ~dst:session
          (Types.Watch_fired { watched = target; kind }))
      sessions

let fire_watches r changed_keys =
  List.iter
    (fun key ->
      fire_watch_table r r.key_watches key Types.Key_watch;
      match Store.parent key with
      | Some parent ->
        fire_watch_table r r.child_watches parent Types.Child_watch
      | None -> ())
    changed_keys

(* ------------------------------------------------------------------ *)
(* Commit and apply *)

(* Fold the applied log prefix into a snapshot once it grows past the
   threshold; every replica compacts independently (apply is deterministic,
   so the snapshots agree). *)
let maybe_compact r =
  let threshold = r.config.Types.snapshot_threshold in
  if threshold > 0 && r.applied_ops >= threshold then begin
    let old_base = r.log_base in
    let data = Data.Sexp.to_string (Store.to_sexp r.machine) in
    let included_term = term_at r r.last_applied in
    r.snapshot <- Some (r.last_applied, included_term, data);
    let compacted = Vec.create () in
    Vec.push compacted { Types.term = included_term; cmd = Types.Noop };
    for i = r.last_applied + 1 to last_log_index r do
      Vec.push compacted (entry_at r i)
    done;
    r.log <- compacted;
    r.log_base <- r.last_applied;
    r.applied_ops <- 0;
    (* The applied store carries the configuration as of the new base;
       keep the config identifier of an entry that got compacted away. *)
    r.snapshot_members <- Store.members r.machine;
    if r.config_index > old_base && r.config_index <= r.log_base then
      r.config_base <- r.config_index;
    Log.info (fun m ->
        m "replica %d: compacted log up to index %d" r.rid r.last_applied)
  end

let apply_committed r =
  while r.last_applied < r.commit_index do
    r.last_applied <- r.last_applied + 1;
    let entry = entry_at r r.last_applied in
    r.applied_ops <- r.applied_ops + Types.cmd_ops entry.Types.cmd;
    let result, changed = Store.apply r.machine entry.Types.cmd in
    if r.role = Leader then begin
      (match Hashtbl.find_opt r.pending r.last_applied with
       | Some (client, req_id) ->
         Hashtbl.remove r.pending r.last_applied;
         send_resp r client ~req_id (Types.Result result)
       | None -> ());
      fire_watches r changed
    end
  done;
  maybe_compact r

let advance_commit r =
  let n = last_log_index r in
  let highest = ref r.commit_index in
  for candidate = r.commit_index + 1 to n do
    if term_at r candidate = r.term then begin
      let acks = ref 0 in
      List.iter
        (fun m ->
          if m = r.rid then incr acks
          else
            match Hashtbl.find_opt r.progress m with
            | Some p when p.match_ >= candidate -> incr acks
            | Some _ | None -> ())
        r.members;
      if !acks >= quorum r then highest := candidate
    end
  done;
  if !highest > r.commit_index then begin
    r.commit_index <- !highest;
    apply_committed r
  end

(* ------------------------------------------------------------------ *)
(* Log replication (leader side) *)

let entries_from r start =
  let last = last_log_index r in
  let stop = min last (start + Types.batch_limit - 1) in
  let rec collect i acc =
    if i < start then acc else collect (i - 1) (entry_at r i :: acc)
  in
  if start > last then [] else collect stop []

let send_append r peer =
  let session = current_session r in
  let next =
    match Hashtbl.find_opt r.progress peer with
    | Some p -> max p.next 1
    | None -> max 1 (last_log_index r + 1)
  in
  if next <= r.log_base then
    (* The entries this follower needs were compacted away: ship the
       snapshot instead (Raft's InstallSnapshot). *)
    match r.snapshot with
    | Some (last_included_index, last_included_term, data) ->
      send_peer r peer
        (Types.Install_snapshot
           { session; term = r.term; last_included_index; last_included_term;
             data })
    | None ->
      Log.err (fun m ->
          m "replica %d: next_index %d below log base %d with no snapshot"
            r.rid next r.log_base)
  else
    let prev = next - 1 in
    send_peer r peer
      (Types.Append_entries
         {
           session;
           term = r.term;
           prev_log_index = prev;
           prev_log_term = term_at r prev;
           entries = entries_from r next;
           leader_commit = r.commit_index;
         })

let replicate_all r = List.iter (send_append r) (replication_targets r)

let append_local r cmd =
  Vec.push r.log { Types.term = r.term; cmd };
  last_log_index r

(* ------------------------------------------------------------------ *)
(* Group commit (paper's throughput ceiling): the per-op persistence cost
   used to be charged once per Submit, serializing client commands through
   the station one fsync at a time.  The batcher coalesces them: commands
   enqueue for free, and a flush — triggered by size or timeout — pays one
   station round for the whole batch, appends every command, and starts
   one replication round.  Acks stay quorum-gated: [apply_committed]
   releases them when the batch's entries commit. *)

(* Bounce the parked batch back to its clients (leadership lost before the
   flush): they retry against the new leader, and the store's per-session
   dedup keeps every command exactly-once.  Already-acked (unsafe-ack)
   items get no second answer. *)
let bounce_batch r =
  if r.batch <> [] then begin
    let items = r.batch in
    r.batch <- [];
    r.batch_len <- 0;
    List.iter
      (fun item ->
        if not item.b_acked then
          send_resp r item.b_client ~req_id:item.b_req (not_leader r))
      items
  end

let flush_batch r trigger =
  match r.batch with
  | [] -> ()
  | _ ->
    let items = List.rev r.batch in
    let size = r.batch_len in
    let epoch = r.term in
    r.batch <- [];
    r.batch_len <- 0;
    (* One amortized persistence charge for the whole batch — the group
       commit.  This blocks (possibly behind earlier station jobs), so
       re-check leadership afterwards: a leadership lost and regained
       meanwhile must bounce the batch too, or a later batch could land
       in the new term while this one's clients resend theirs behind it. *)
    Des.Station.request r.station ~service:r.config.Types.op_service_time;
    if r.role <> Leader || r.term <> epoch then
      List.iter
        (fun item ->
          if not item.b_acked then
            send_resp r item.b_client ~req_id:item.b_req (not_leader r))
        items
    else begin
      List.iter
        (fun item ->
          let index = append_local r item.b_cmd in
          if not item.b_acked then
            Hashtbl.replace r.pending index (item.b_client, item.b_req))
        items;
      Types.note_batch r.gstats size;
      (match trigger with
       | `Full -> r.gstats.Types.flush_full <- r.gstats.Types.flush_full + 1
       | `Timeout ->
         r.gstats.Types.flush_timeout <- r.gstats.Types.flush_timeout + 1);
      replicate_all r;
      advance_commit r
    end

(* ------------------------------------------------------------------ *)
(* Role transitions *)

let become_follower r term =
  if term > r.term then begin
    r.term <- term;
    r.voted_for <- None
  end;
  if r.role <> Follower then
    Log.debug (fun m -> m "replica %d: -> follower (term %d)" r.rid r.term);
  r.role <- Follower;
  (* A deposed leader's parked batch never flushes; bounce it so its
     clients retry at the new leader instead of waiting out the timeout. *)
  bounce_batch r;
  reset_election_deadline r

let expire_dead_sessions r =
  let t = now r in
  let dead =
    Hashtbl.fold
      (fun session info acc ->
        if t -. info.last_seen > info.timeout then session :: acc else acc)
      r.sessions []
  in
  List.iter
    (fun session ->
      Log.info (fun m -> m "replica %d: expiring session %d" r.rid session);
      Hashtbl.remove r.sessions session;
      ignore (append_local r (Types.Expire_session session)))
    dead;
  if dead <> [] then begin
    replicate_all r;
    advance_commit r
  end

(* The replication pump doubles as the heartbeat: it periodically sends
   append-entries (possibly empty) to every follower, retransmitting any
   suffix the follower is missing.  It runs as its own process so that a
   leader whose main loop is busy charging ops to the service station still
   keeps the cluster stable. *)
let spawn_leader_duties r =
  let epoch = r.term in
  let still_leading () =
    (not r.stop_requested) && r.role = Leader && r.term = epoch
  in
  let pump =
    Des.Proc.spawn ~name:(Printf.sprintf "replica-%d-pump" r.rid) (sim r)
      (fun () ->
        while still_leading () do
          replicate_all r;
          Des.Proc.sleep Types.heartbeat_interval
        done)
  in
  let reaper =
    Des.Proc.spawn ~name:(Printf.sprintf "replica-%d-sessions" r.rid) (sim r)
      (fun () ->
        while still_leading () do
          Des.Proc.sleep Types.session_check_interval;
          if still_leading () then expire_dead_sessions r
        done)
  in
  (* Timeout side of the group-commit batcher: each empty->nonempty batch
     transition sends one token; the flusher sleeps out the batch's
     deadline and flushes whatever is still parked.  A batch that hit
     [group_size] first was already flushed inline — the leftover token
     finds an empty batch and the wakeup no-ops. *)
  let flusher =
    Des.Proc.spawn ~name:(Printf.sprintf "replica-%d-group" r.rid) (sim r)
      (fun () ->
        while still_leading () do
          (match
             Des.Channel.recv_timeout r.batch_signal
               ~timeout:Types.session_check_interval
           with
           | None -> ()
           | Some () ->
             (* Sleep out the deadline of whatever batch is open when the
                sleep ends — the one this token announced may have been
                size-flushed and replaced meanwhile. *)
             while still_leading () && r.batch <> [] && r.batch_deadline > now r
             do
               Des.Proc.sleep (r.batch_deadline -. now r)
             done;
             if still_leading () then flush_batch r `Timeout)
        done)
  in
  r.procs <- pump :: reaper :: flusher :: r.procs

let become_leader r =
  Log.info (fun m -> m "replica %d: -> leader (term %d)" r.rid r.term);
  r.role <- Leader;
  r.leader_hint <- Some r.rid;
  (* Fresh batcher state for this leadership: any parked batch was bounced
     on step-down, and a fresh signal channel keeps a lingering flusher
     from an earlier epoch from eating this epoch's wakeup tokens. *)
  r.batch <- [];
  r.batch_len <- 0;
  r.batch_signal <-
    Des.Channel.create ();
  (* Fresh progress for the effective configuration; any learner being
     caught up by the previous leader is dropped (its client retries). *)
  Hashtbl.reset r.progress;
  List.iter
    (fun peer ->
      Hashtbl.replace r.progress peer
        { next = last_log_index r + 1; match_ = 0; pending_join = None })
    (voting_peers r);
  (* Commit the new term immediately (Raft's no-op trick), so earlier-term
     entries become committable. *)
  ignore (append_local r Types.Noop);
  (* Grace period for sessions inherited from the previous leader: anything
     owning an ephemeral gets a fresh expiry clock. *)
  List.iter (touch_session r) (Store.ephemeral_owners r.machine);
  spawn_leader_duties r;
  replicate_all r;
  advance_commit r

let start_election r =
  if not (r.voting && is_member r) then
    (* Learners and removed servers do not campaign (Raft §4.2.1/§4.2.3);
       push the deadline out instead of spinning on it every tick. *)
    reset_election_deadline r
  else begin
    r.term <- r.term + 1;
    r.role <- Candidate;
    r.voted_for <- Some r.rid;
    r.votes <- [ r.rid ];
    reset_election_deadline r;
    Log.debug (fun m -> m "replica %d: election for term %d" r.rid r.term);
    let last = last_log_index r in
    List.iter
      (fun peer ->
        send_peer r peer
          (Types.Request_vote
             { term = r.term; last_log_index = last; last_log_term = term_at r last }))
      (voting_peers r);
    if quorum r = 1 then become_leader r
  end

(* ------------------------------------------------------------------ *)
(* Peer message handling *)

let log_up_to_date r ~last_log_index:cand_last ~last_log_term:cand_term =
  let my_last = last_log_index r in
  let my_term = term_at r my_last in
  cand_term > my_term || (cand_term = my_term && cand_last >= my_last)

let handle_request_vote r src ~term ~last_log_index ~last_log_term =
  if not (Types.member r.members src) then
    (* A removed server that never learned of its removal keeps
       campaigning on ever-higher terms; adopting its term would depose
       legitimate leaders (Raft §4.2.3).  Refuse without adopting. *)
    send_peer r src (Types.Vote_reply { term = r.term; granted = false })
  else begin
    if term > r.term then become_follower r term;
    let granted =
      term = r.term
      && (match r.voted_for with None -> true | Some v -> v = src)
      && log_up_to_date r ~last_log_index ~last_log_term
    in
    if granted then begin
      r.voted_for <- Some src;
      reset_election_deadline r
    end;
    send_peer r src (Types.Vote_reply { term = r.term; granted })
  end

let handle_vote_reply r src ~term ~granted =
  if not (Types.member r.members src) then ()
  else if term > r.term then become_follower r term
  else if r.role = Candidate && term = r.term && granted then begin
    if not (List.mem src r.votes) then r.votes <- src :: r.votes;
    (* Count votes against the effective configuration: a vote from a
       node removed since the ballot went out must not count. *)
    if Types.count_votes ~members:r.members r.votes >= quorum r then
      become_leader r
  end

let handle_append_entries r src ~session ~term ~prev_log_index ~prev_log_term
    ~entries ~leader_commit =
  let reply ~success ~match_index =
    send_peer r src
      (Types.Append_reply { session; term = r.term; success; match_index })
  in
  if term < r.term then reply ~success:false ~match_index:0
  else begin
    become_follower r term;
    r.leader_hint <- Some src;
    if prev_log_index < r.log_base then
      (* Everything at or below the log base is covered by our snapshot:
         acknowledge it so the leader advances next_index. *)
      reply ~success:true ~match_index:r.log_base
    else if
      prev_log_index > last_log_index r
      || term_at r prev_log_index <> prev_log_term
    then
      (* Log mismatch: hint the leader where to back up to. *)
      reply ~success:false
        ~match_index:
          (min (last_log_index r) (max r.log_base (prev_log_index - 1)))
    else begin
      (* Append entries, truncating any conflicting suffix; duplicates from
         retransmissions are recognized and skipped. *)
      let config_truncated = ref false in
      List.iteri
        (fun offset (entry : Types.log_entry) ->
          let index = prev_log_index + 1 + offset in
          if index <= r.log_base then () (* already in the snapshot *)
          else if index <= last_log_index r then begin
            if term_at r index <> entry.Types.term then begin
              (* The truncated suffix may contain configuration entries;
                 recompute the effective membership afterwards. *)
              if r.config_index >= index then config_truncated := true;
              Vec.truncate r.log (index - r.log_base);
              Vec.push r.log entry;
              note_config_append r index entry.Types.cmd
            end
          end
          else begin
            Vec.push r.log entry;
            note_config_append r index entry.Types.cmd
          end)
        entries;
      if !config_truncated then rescan_membership r;
      let matched = prev_log_index + List.length entries in
      if leader_commit > r.commit_index then begin
        r.commit_index <- min leader_commit (last_log_index r);
        apply_committed r
      end;
      reply ~success:true ~match_index:matched
    end
  end

(* A caught-up learner gets its deferred Add entry appended: from here on
   the new configuration is effective at this leader and the node counts
   toward quorum.  The client's reply rides the normal pending path (the
   Add commits, Store.apply returns Config_ok). *)
let maybe_promote r p =
  match p.pending_join with
  | Some j when p.match_ >= j.target ->
    p.pending_join <- None;
    r.stats.Types.catchups <- r.stats.Types.catchups + 1;
    let index = append_local r j.add_cmd in
    note_config_append r index j.add_cmd;
    r.stats.Types.joins <- r.stats.Types.joins + 1;
    let client, req_id = j.reply_to in
    Hashtbl.replace r.pending index (client, req_id);
    Log.info (fun m ->
        m "replica %d: learner caught up, membership now [%s]" r.rid
          (String.concat ";" (List.map string_of_int r.members)));
    replicate_all r
  | Some _ | None -> ()

let handle_append_reply r src ~session ~term ~success ~match_index =
  if term > r.term then become_follower r term
  else if r.role = Leader && term = r.term then begin
    if r.config.Types.session_ids && session <> current_session r then
      (* Echo from a previous replication session — an earlier term, or a
         configuration that has since changed.  If this node was removed
         and re-added in between, the stale match index describes a log
         the current incarnation does not have; honouring it would
         corrupt progress tracking. *)
      r.stats.Types.stale_sessions_rejected <-
        r.stats.Types.stale_sessions_rejected + 1
    else
      match Hashtbl.find_opt r.progress src with
      | None -> () (* not a replication target (removed meanwhile) *)
      | Some p ->
        if success then begin
          p.match_ <- max p.match_ match_index;
          p.next <- p.match_ + 1;
          maybe_promote r p;
          advance_commit r
        end
        else begin
          p.next <- max 1 (match_index + 1);
          send_append r src
        end
  end

let handle_install_snapshot r src ~session ~term ~last_included_index
    ~last_included_term ~data =
  let reply ~success ~match_index =
    send_peer r src
      (Types.Append_reply { session; term = r.term; success; match_index })
  in
  if term < r.term then reply ~success:false ~match_index:0
  else begin
    become_follower r term;
    r.leader_hint <- Some src;
    if last_included_index <= r.last_applied then
      (* Stale snapshot: we already have this prefix applied. *)
      reply ~success:true ~match_index:r.last_applied
    else begin
      match Result.bind (Data.Sexp.of_string data) Store.of_sexp with
      | Error reason ->
        Log.err (fun m -> m "replica %d: corrupt snapshot: %s" r.rid reason)
      | Ok machine ->
        r.machine <- machine;
        let fresh = Vec.create () in
        Vec.push fresh { Types.term = last_included_term; cmd = Types.Noop };
        r.log <- fresh;
        r.log_base <- last_included_index;
        r.commit_index <- last_included_index;
        r.last_applied <- last_included_index;
        r.applied_ops <- 0;
        r.snapshot <- Some (last_included_index, last_included_term, data);
        (* The snapshot carries the configuration as of its index; with
           the log reset, it is also the effective one.  A learner listed
           in it has its membership confirmed. *)
        r.snapshot_members <- Store.members machine;
        r.config_base <- last_included_index;
        r.members <- r.snapshot_members;
        r.config_index <- r.config_base;
        if Types.member r.snapshot_members r.rid then r.voting <- true;
        Log.info (fun m ->
            m "replica %d: installed snapshot at index %d" r.rid
              last_included_index);
        reply ~success:true ~match_index:last_included_index
    end
  end

let handle_peer r src pm =
  match pm with
  | Types.Request_vote { term; last_log_index; last_log_term } ->
    handle_request_vote r src ~term ~last_log_index ~last_log_term
  | Types.Vote_reply { term; granted } -> handle_vote_reply r src ~term ~granted
  | Types.Append_entries
      { session; term; prev_log_index; prev_log_term; entries; leader_commit }
    ->
    handle_append_entries r src ~session ~term ~prev_log_index ~prev_log_term
      ~entries ~leader_commit
  | Types.Append_reply { session; term; success; match_index } ->
    handle_append_reply r src ~session ~term ~success ~match_index
  | Types.Install_snapshot
      { session; term; last_included_index; last_included_term; data } ->
    handle_install_snapshot r src ~session ~term ~last_included_index
      ~last_included_term ~data

(* ------------------------------------------------------------------ *)
(* Client request handling *)

let serve_query r src query =
  match query with
  | Types.Get key -> Types.Got (Store.get r.machine key)
  | Types.Children prefix -> Types.Children_are (Store.children r.machine prefix)
  | Types.Children_values (prefix, n) ->
    Types.Children_values_are (Store.children_values r.machine prefix n)
  | Types.Watch_key key ->
    add_watch r.key_watches key src;
    Types.Watch_set
  | Types.Watch_children prefix ->
    add_watch r.child_watches prefix src;
    Types.Watch_set

(* Membership changes intercept the submit path: the entry must not be
   appended blindly — single change at a time, adds of unknown nodes go
   through learner catch-up first, and obviously-settled requests
   (already a member / already gone) answer immediately so ensemble-level
   retries converge. *)
let handle_config_change r src ~req_id cmd =
  let answer result = send_resp r src ~req_id (Types.Result result) in
  match cmd with
  | Types.Add_replica { id; _ } ->
    if Types.member r.members id then answer Types.Config_ok
    else if config_change_pending r then
      answer (Types.Op_failed Types.Config_pending)
    else if id < 0 || id >= Des.Net.node_count r.net || id = r.rid then
      answer (Types.Op_failed Types.Config_invalid)
    else begin
      let p =
        match Hashtbl.find_opt r.progress id with
        | Some p -> p
        | None ->
          let p =
            { next = last_log_index r + 1; match_ = 0; pending_join = None }
          in
          Hashtbl.replace r.progress id p;
          p
      in
      p.pending_join <-
        Some { target = last_log_index r; add_cmd = cmd; reply_to = (src, req_id) };
      Log.info (fun m ->
          m "replica %d: catching up learner %d to index %d" r.rid id
            (last_log_index r));
      send_append r id
    end
  | Types.Remove_replica { id; _ } ->
    if not (Types.member r.members id) then answer Types.Config_ok
    else if config_change_pending r then
      answer (Types.Op_failed Types.Config_pending)
    else if id = r.rid || List.length r.members <= 1 then
      (* The leader never removes itself (no joint consensus here), and
         the last member must stay. *)
      answer (Types.Op_failed Types.Config_invalid)
    else begin
      let index = append_local r cmd in
      note_config_append r index cmd;
      r.stats.Types.leaves <- r.stats.Types.leaves + 1;
      (* Stop replicating to it; its in-flight replies now carry a stale
         session id and are rejected. *)
      Hashtbl.remove r.progress id;
      Hashtbl.replace r.pending index (src, req_id);
      Log.info (fun m ->
          m "replica %d: removing %d, membership now [%s]" r.rid id
            (String.concat ";" (List.map string_of_int r.members)));
      replicate_all r;
      advance_commit r
    end
  | Types.Create _ | Types.Write _ | Types.Delete _ | Types.Multi _
  | Types.Expire_session _ | Types.Noop ->
    assert false

let handle_client r src ~req_id ~session_timeout request =
  if r.role <> Leader then send_resp r src ~req_id (not_leader r)
  else begin
    touch_session ~timeout:session_timeout r src;
    match request with
    | Types.Ping -> send_resp r src ~req_id Types.Pong
    | Types.Query query ->
      send_resp r src ~req_id (Types.Query_result (serve_query r src query))
    | Types.Submit ((Types.Add_replica _ | Types.Remove_replica _) as cmd) ->
      Des.Station.request r.station ~service:r.config.Types.op_service_time;
      if r.role <> Leader then send_resp r src ~req_id (not_leader r)
      else handle_config_change r src ~req_id cmd
    | Types.Submit cmd ->
      (* Group commit: enqueue for free; the batch pays one amortized
         station round when it flushes on size or timeout.  The receipt
         goes out at once, the ack is released by [apply_committed] once
         the batch reaches quorum.  With [group_commit] off every batch
         holds one command, so commands serialize through the station one
         fsync at a time: the paper's throughput ceiling, kept as the
         baseline. *)
      let acked =
        r.config.Types.unsafe_ack
        && begin
          (* DURABILITY ABLATION: answer from a speculative apply before
             the command is replicated.  The per-session dedup absorbs
             the duplicate apply when the batch commits; a leader crash
             before quorum loses a command the client believes durable —
             the hazard the commit-storm preset convicts. *)
          let result, changed = Store.apply r.machine cmd in
          send_resp r src ~req_id (Types.Result result);
          fire_watches r changed;
          r.gstats.Types.unsafe_acks <- r.gstats.Types.unsafe_acks + 1;
          true
        end
      in
      if not acked then begin
        r.gstats.Types.acks_deferred <- r.gstats.Types.acks_deferred + 1;
        send_resp r src ~req_id Types.Admitted
      end;
      let was_empty = r.batch = [] in
      r.batch <-
        { b_client = src; b_req = req_id; b_cmd = cmd; b_acked = acked }
        :: r.batch;
      r.batch_len <- r.batch_len + 1;
      let limit =
        if r.config.Types.group_commit then r.config.Types.group_size else 1
      in
      if r.batch_len >= limit then flush_batch r `Full
      else if was_empty then begin
        r.batch_deadline <- now r +. r.config.Types.group_timeout;
        Des.Channel.send r.batch_signal ()
      end
  end

(* ------------------------------------------------------------------ *)
(* Main loop and lifecycle *)

let main_loop r () =
  reset_election_deadline r;
  while not r.stop_requested do
    (match
       Des.Channel.recv_timeout
         (Des.Net.inbox r.net r.rid)
         ~timeout:Types.tick
     with
     | Some (src, Types.Peer pm) -> handle_peer r src pm
     | Some (src, Types.Client_req { req_id; session_timeout; request }) ->
       handle_client r src ~req_id ~session_timeout request
     | Some (_, (Types.Client_resp _ | Types.Watch_fired _)) ->
       () (* not addressed to replicas; ignore *)
     | None -> ());
    if r.role <> Leader && now r >= r.election_deadline then start_election r
  done

let create ?(learner = false) ?stats ?gstats ~net ~id ~members ~config () =
  let base_members = List.sort compare members in
  let log = Vec.create () in
  Vec.push log { Types.term = 0; cmd = Types.Noop };
  {
    rid = id;
    net;
    base_members;
    boot_voting = not learner;
    stats =
      (match stats with
       | Some s -> s
       | None -> Types.fresh_membership_stats ());
    gstats =
      (match gstats with
       | Some s -> s
       | None -> Types.fresh_group_stats ());
    config;
    term = 0;
    voted_for = None;
    log;
    log_base = 0;
    snapshot = None;
    members = base_members;
    config_index = 0;
    snapshot_members = base_members;
    config_base = 0;
    voting = not learner;
    role = Follower;
    leader_hint = None;
    commit_index = 0;
    last_applied = 0;
    applied_ops = 0;
    machine = Store.create ~members:base_members ();
    progress = Hashtbl.create 8;
    votes = [];
    election_deadline = 0.;
    pending = Hashtbl.create 64;
    sessions = Hashtbl.create 16;
    key_watches = Hashtbl.create 64;
    child_watches = Hashtbl.create 64;
    station = Des.Station.create ~name:(Printf.sprintf "replica-%d-io" id) (Des.Net.sim net);
    batch = [];
    batch_len = 0;
    batch_deadline = 0.;
    batch_signal =
      Des.Channel.create ();
    stop_requested = false;
    procs = [];
  }

let start r =
  r.stop_requested <- false;
  let p =
    Des.Proc.spawn ~name:(Printf.sprintf "replica-%d" r.rid) (sim r)
      (main_loop r)
  in
  r.procs <- [ p ]

let stop r =
  r.stop_requested <- true;
  List.iter Des.Proc.kill r.procs;
  r.procs <- []

let reset_volatile r =
  r.role <- Follower;
  r.leader_hint <- None;
  r.applied_ops <- 0;
  (* Stable state (term, vote, log, snapshot) survives; the applied store
     is rebuilt from the snapshot, then the retained log replays on top. *)
  (match r.snapshot with
   | Some (index, _, data) ->
     (match Result.bind (Data.Sexp.of_string data) Store.of_sexp with
      | Ok machine ->
        r.machine <- machine;
        r.commit_index <- index;
        r.last_applied <- index;
        r.snapshot_members <- Store.members machine;
        r.config_base <- index
      | Error reason ->
        Log.err (fun m -> m "replica %d: corrupt snapshot on restart: %s" r.rid reason);
        r.machine <- Store.create ~members:r.base_members ();
        r.commit_index <- r.log_base;
        r.last_applied <- r.log_base;
        r.snapshot_members <- r.base_members;
        r.config_base <- 0)
   | None ->
     r.machine <- Store.create ~members:r.base_members ();
     r.commit_index <- 0;
     r.last_applied <- 0;
     r.snapshot_members <- r.base_members;
     r.config_base <- 0);
  (* Effective membership follows the surviving log and snapshot. *)
  r.voting <- r.boot_voting;
  rescan_membership r;
  Hashtbl.reset r.progress;
  r.votes <- [];
  Hashtbl.reset r.pending;
  Hashtbl.reset r.sessions;
  Hashtbl.reset r.key_watches;
  Hashtbl.reset r.child_watches;
  (* A fresh station: jobs queued before the crash are gone.  Likewise the
     group-commit batch — a crashed leader's unflushed commands die with
     it (their clients never saw an ack and retry). *)
  r.station <-
    Des.Station.create ~name:(Printf.sprintf "replica-%d-io" r.rid) (sim r);
  r.batch <- [];
  r.batch_len <- 0;
  r.batch_signal <-
    Des.Channel.create ()
