(* Shared protocol types of the coordination service.

   The service exposes a ZooKeeper-flavoured API (versioned keys, ephemeral
   and sequential nodes, one-shot watches, sessions) replicated across an
   ensemble with a Raft-style protocol.  This module is pure data; replica
   and client logic live in {!Replica} and {!Client}. *)

(* ------------------------------------------------------------------ *)
(* Replicated commands and their results *)

(* One step of an atomic [Multi]: a data command without the session and
   request ids, which the enclosing multi carries.  Inside a multi an
   unconditional delete of a missing key is a no-op, while a versioned one
   is a precondition: it fails, and aborts the whole multi. *)
type op =
  | Op_create of { key : string; value : string; ephemeral : bool; sequential : bool }
  | Op_write of { key : string; value : string; expect_version : int option }
  | Op_delete of { key : string; expect_version : int option }

(* Every client-originated command carries its session id and a per-session
   request sequence number: the state machine deduplicates retries so a
   command is applied exactly once even if the client re-sends it across a
   leader change. *)
type cmd =
  | Create of {
      session : int;
      req : int;
      key : string;
      value : string;
      ephemeral : bool;  (* deleted automatically when the session expires *)
      sequential : bool; (* a monotone suffix is appended to [key] *)
    }
  | Write of {
      session : int;
      req : int;
      key : string;
      value : string;
      expect_version : int option; (* CAS when [Some v]; upsert when [None] *)
    }
  | Delete of { session : int; req : int; key : string; expect_version : int option }
  | Multi of { session : int; req : int; ops : op list }
      (* ZooKeeper's [multi]: the ops apply in order, all or none; one log
         entry however many ops it carries *)
  | Expire_session of int (* proposed by the leader; system command *)
  | Noop (* appended by a fresh leader to commit its term *)
  (* Single-server membership changes (Raft §4), replicated through the
     same log as data commands.  They take effect on *append*, not on
     commit: a replica uses the latest configuration entry in its log to
     compute quorum and voting membership. *)
  | Add_replica of { session : int; req : int; id : int }
  | Remove_replica of { session : int; req : int; id : int }

type op_error =
  | Key_missing
  | Key_exists
  | Bad_version
  | Config_pending (* another membership change is still in flight *)
  | Config_invalid (* e.g. removing the leader or the last member *)

type op_result =
  | Created of string (* the final key, with sequence suffix if requested *)
  | Written of int    (* new version *)
  | Deleted_ok
  | Expired_ok
  | Noop_ok
  | Config_ok
  | Multi_ok of op_result list (* one result per op, in order *)
  | Op_failed of op_error

(* ------------------------------------------------------------------ *)
(* Client-visible queries (served at the leader, not replicated) *)

type query =
  | Get of string
  | Children of string            (* direct children of a key prefix *)
  | Children_values of string * int
      (* the first n direct children, in key order, with their values *)
  | Watch_key of string           (* one-shot watch *)
  | Watch_children of string

type watch_kind = Key_watch | Child_watch

type watch_event = { watched : string; kind : watch_kind }

type query_result =
  | Got of (string * int) option  (* value, version *)
  | Children_are of string list
  | Children_values_are of (string * string) list
  | Watch_set

(* ------------------------------------------------------------------ *)
(* Wire messages *)

type log_entry = { term : int; cmd : cmd }

(* Identity of one leader's replication stream towards its peers: the
   leader's vote (term × id) crossed with the log index of the latest
   membership-configuration entry.  Carried on every append/snapshot and
   echoed verbatim in the response, so the leader can tell a response that
   belongs to the *current* progress-tracking session from one left over
   from before a membership change — the openraft ReplicationSessionId
   trap: remove a node and re-add it within one term, and a delayed
   response from the old incarnation would otherwise corrupt the
   fresh progress entry. *)
type session_id = { s_term : int; s_leader : int; s_mlog : int }

type peer_msg =
  | Request_vote of { term : int; last_log_index : int; last_log_term : int }
  | Vote_reply of { term : int; granted : bool }
  | Append_entries of {
      session : session_id;
      term : int;
      prev_log_index : int;
      prev_log_term : int;
      entries : log_entry list;
      leader_commit : int;
    }
  | Append_reply of {
      session : session_id; (* echoed from the request *)
      term : int;
      success : bool;
      match_index : int;
    }
  | Install_snapshot of {
      session : session_id;
      term : int;
      last_included_index : int;
      last_included_term : int;
      data : string; (* serialized Store at last_included_index *)
    }

type request =
  | Ping
  | Submit of cmd
  | Query of query

type response =
  | Pong
  | Admitted
      (* receipt: the leader has put this Submit into its log order (the
         group-commit batch); the [Result] follows once it commits.  A
         session sends its next command only after the previous one's
         receipt or result, so the leader admits each session's commands
         in send order *)
  | Result of op_result
  | Query_result of query_result
  | Not_leader of { hint : int option; members : int list }
      (* best-known leader id plus the responder's view of the effective
         membership, so clients connected before a config change stop
         cycling departed boot-time node ids *)

type msg =
  | Peer of peer_msg
  | Client_req of {
      req_id : int;
      session_timeout : float;
          (* piggybacked on every request so whichever replica currently
             leads learns the session's failure-detection timeout *)
      request : request;
    }
  | Client_resp of { req_id : int; response : response }
  | Watch_fired of watch_event

(* ------------------------------------------------------------------ *)
(* Ensemble configuration *)

(* Protocol constants no deployment varies. *)
let heartbeat_interval = 0.05
let election_timeout = 0.4 (* base; each election waits 1–2 × this *)
let session_check_interval = 1.0
let batch_limit = 64 (* max log entries per Append_entries *)
let tick = 0.02 (* replica loop granularity *)
let boot_replicas = 3 (* an ensemble's replicas at creation *)

type config = {
  op_service_time : float;  (* leader service time per replicated op *)
  default_session_timeout : float; (* for sessions learned implicitly *)
  request_timeout : float;  (* client retry timeout *)
  snapshot_threshold : int; (* applied ops (a multi counts each of its
                               ops) kept in the log before compacting
                               into a snapshot; 0 disables *)
  session_ids : bool;       (* reject append replies from a stale
                               replication session; ablation hook *)
  group_commit : bool;      (* batch client Submits into one append/fsync
                               round; off, every batch holds one command
                               (the throughput baseline) *)
  group_size : int;         (* flush the batch once it holds this many *)
  group_timeout : float;    (* ... or this long after its first command;
                               must stay well below [request_timeout] *)
  unsafe_ack : bool;        (* DURABILITY ABLATION: ack a Submit on
                               enqueue, before the batch reaches quorum *)
}

let default_config =
  {
    op_service_time = 0.0008;
    default_session_timeout = 10.0;
    request_timeout = 1.0;
    snapshot_threshold = 50_000;
    session_ids = true;
    group_commit = true;
    group_size = 16;
    group_timeout = 0.002;
    unsafe_ack = false;
  }

(* ------------------------------------------------------------------ *)
(* Membership helpers (pure; shared by replicas, tests and harnesses) *)

let member members id = List.mem id members

let add_member members id =
  if List.mem id members then members else List.sort compare (id :: members)

let remove_member members id = List.filter (fun m -> m <> id) members

(* Majority of the *effective* configuration. *)
let quorum_of members = (List.length members / 2) + 1

(* Votes (or acks) that actually count: one per distinct member.  A vote
   from a node outside [members] — a removed server still campaigning, a
   learner not yet promoted — never counts. *)
let count_votes ~members votes =
  List.length
    (List.sort_uniq compare (List.filter (fun v -> List.mem v members) votes))

(* ------------------------------------------------------------------ *)
(* Membership counters, shared by every replica instance an ensemble
   creates (instances come and go across add/remove; the counters must
   survive them). *)

type membership_stats = {
  mutable joins : int;   (* Add_replica entries appended by a leader *)
  mutable leaves : int;  (* Remove_replica entries appended by a leader *)
  mutable catchups : int;
      (* learners that reached their catch-up target and were promoted *)
  mutable stale_sessions_rejected : int;
      (* append replies dropped because their session id was stale *)
}

let fresh_membership_stats () =
  { joins = 0; leaves = 0; catchups = 0; stale_sessions_rejected = 0 }

(* ------------------------------------------------------------------ *)
(* Group-commit counters, shared by every replica instance of an ensemble
   for the same reason as [membership_stats]: leaders come and go, the
   batching telemetry must accumulate across them. *)

type group_stats = {
  mutable flushes : int;          (* batches appended *)
  mutable flush_full : int;       (* ... because the batch hit group_size *)
  mutable flush_timeout : int;    (* ... because group_timeout elapsed *)
  mutable batched_cmds : int;     (* client commands that rode a batch *)
  mutable acks_deferred : int;    (* commands enqueued without an
                                     immediate ack (released at quorum) *)
  mutable unsafe_acks : int;      (* commands acked at enqueue (ablation) *)
  mutable max_batch : int;        (* largest batch flushed so far *)
  batch_hist : int array;
      (* batch-size histogram: bucket i counts flushes of size in
         [2^i, 2^(i+1)); sizes past the last bucket land in it *)
}

let group_hist_buckets = 8 (* 1, 2-3, 4-7, ..., 128+ *)

let fresh_group_stats () =
  {
    flushes = 0;
    flush_full = 0;
    flush_timeout = 0;
    batched_cmds = 0;
    acks_deferred = 0;
    unsafe_acks = 0;
    max_batch = 0;
    batch_hist = Array.make group_hist_buckets 0;
  }

let group_hist_bucket size =
  let rec go i n = if n <= 1 || i >= group_hist_buckets - 1 then i else go (i + 1) (n / 2) in
  go 0 (max 1 size)

let note_batch gs size =
  gs.flushes <- gs.flushes + 1;
  gs.batched_cmds <- gs.batched_cmds + size;
  if size > gs.max_batch then gs.max_batch <- size;
  let b = group_hist_bucket size in
  gs.batch_hist.(b) <- gs.batch_hist.(b) + 1

(* Store operations a command carries: what compaction counts, so a log of
   multis compacts at the same data volume as one of single commands. *)
let cmd_ops = function
  | Multi { ops; _ } -> List.length ops
  | Create _ | Write _ | Delete _ | Expire_session _ | Noop | Add_replica _
  | Remove_replica _ ->
    1

let pp_op_error fmt e =
  Format.pp_print_string fmt
    (match e with
     | Key_missing -> "key missing"
     | Key_exists -> "key exists"
     | Bad_version -> "bad version"
     | Config_pending -> "config change pending"
     | Config_invalid -> "config change invalid")

let rec pp_op_result fmt = function
  | Created k -> Format.fprintf fmt "created %s" k
  | Written v -> Format.fprintf fmt "written v%d" v
  | Deleted_ok -> Format.pp_print_string fmt "deleted"
  | Expired_ok -> Format.pp_print_string fmt "session expired"
  | Noop_ok -> Format.pp_print_string fmt "noop"
  | Config_ok -> Format.pp_print_string fmt "config ok"
  | Multi_ok rs ->
    Format.fprintf fmt "multi [%a]"
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
         pp_op_result)
      rs
  | Op_failed e -> Format.fprintf fmt "failed: %a" pp_op_error e
