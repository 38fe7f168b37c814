type signal = Term | Kill

let signal_to_string = function Term -> "TERM" | Kill -> "KILL"

let signal_of_string = function
  | "TERM" -> Ok Term
  | "KILL" -> Ok Kill
  | s -> Error (Printf.sprintf "unknown signal %S" s)

type control =
  | Reload of Data.Path.t
  | Repair of Data.Path.t
  | Signal of int * signal

type outcome =
  | Phy_committed
  | Phy_aborted of string
  | Phy_failed of string

type exec_stats = {
  retries : int;
  transient_failures : int;
  timeouts : int;
  replay_s : float;  (** sim seconds the worker spent replaying the log *)
  undo_s : float;  (** sim seconds spent rolling back, 0 when none *)
}

let no_exec_stats =
  { retries = 0; transient_failures = 0; timeouts = 0; replay_s = 0.;
    undo_s = 0. }

type input_item =
  | Request of { proc : string; args : Data.Value.t list }
  | Result of { txn_id : int; outcome : outcome; exec : exec_stats }
  | Control of control

let outcome_to_sexp =
  let open Data.Sexp in
  function
  | Phy_committed -> List [ Atom "committed" ]
  | Phy_aborted reason -> List [ Atom "aborted"; Atom reason ]
  | Phy_failed reason -> List [ Atom "failed"; Atom reason ]

let outcome_of_sexp = function
  | Data.Sexp.List [ Data.Sexp.Atom "committed" ] -> Ok Phy_committed
  | Data.Sexp.List [ Data.Sexp.Atom "aborted"; Data.Sexp.Atom reason ] ->
    Ok (Phy_aborted reason)
  | Data.Sexp.List [ Data.Sexp.Atom "failed"; Data.Sexp.Atom reason ] ->
    Ok (Phy_failed reason)
  | other -> Error ("bad outcome: " ^ Data.Sexp.to_string other)

let to_sexp item =
  let open Data.Sexp in
  match item with
  | Request { proc; args } ->
    List
      [ Atom "request"; Atom proc; List (List.map Data.Value.to_sexp args) ]
  | Result { txn_id; outcome; exec } ->
    List
      [ Atom "result"; of_int txn_id; outcome_to_sexp outcome;
        of_int exec.retries; of_int exec.transient_failures;
        of_int exec.timeouts; Atom (Printf.sprintf "%.6f" exec.replay_s);
        Atom (Printf.sprintf "%.6f" exec.undo_s) ]
  | Control (Reload path) ->
    List [ Atom "control"; Atom "reload"; Data.Path.to_sexp path ]
  | Control (Repair path) ->
    List [ Atom "control"; Atom "repair"; Data.Path.to_sexp path ]
  | Control (Signal (txn_id, signal)) ->
    List
      [ Atom "control"; Atom "signal"; of_int txn_id;
        Atom (signal_to_string signal) ]

let ( let* ) r f = Result.bind r f

let of_sexp sexp =
  match sexp with
  | Data.Sexp.List [ Data.Sexp.Atom "request"; Data.Sexp.Atom proc; Data.Sexp.List args ] ->
    let* args = Data.Sexp.map_result Data.Value.of_sexp args in
    Ok (Request { proc; args })
  | Data.Sexp.List
      [ Data.Sexp.Atom "result"; txn_id; outcome; retries; transient; timeouts;
        Data.Sexp.Atom replay_s; Data.Sexp.Atom undo_s ] ->
    let* txn_id = Data.Sexp.to_int txn_id in
    let* outcome = outcome_of_sexp outcome in
    let* retries = Data.Sexp.to_int retries in
    let* transient_failures = Data.Sexp.to_int transient in
    let* timeouts = Data.Sexp.to_int timeouts in
    let to_float what s =
      match float_of_string_opt s with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "bad %s %S" what s)
    in
    let* replay_s = to_float "replay_s" replay_s in
    let* undo_s = to_float "undo_s" undo_s in
    Ok
      (Result
         { txn_id; outcome;
           exec = { retries; transient_failures; timeouts; replay_s; undo_s }
         })
  | Data.Sexp.List [ Data.Sexp.Atom "control"; Data.Sexp.Atom "reload"; path ] ->
    let* path = Data.Path.of_sexp path in
    Ok (Control (Reload path))
  | Data.Sexp.List [ Data.Sexp.Atom "control"; Data.Sexp.Atom "repair"; path ] ->
    let* path = Data.Path.of_sexp path in
    Ok (Control (Repair path))
  | Data.Sexp.List
      [ Data.Sexp.Atom "control"; Data.Sexp.Atom "signal"; txn_id; Data.Sexp.Atom s ] ->
    let* txn_id = Data.Sexp.to_int txn_id in
    let* signal = signal_of_string s in
    Ok (Control (Signal (txn_id, signal)))
  | other -> Error ("Proto.of_sexp: " ^ Data.Sexp.to_string other)

let input_to_string item = Data.Sexp.to_string (to_sexp item)

let input_of_string s =
  let* sexp = Data.Sexp.of_string s in
  of_sexp sexp

let seq_of_item_key key =
  match String.rindex_opt key '-' with
  | None -> Error (Printf.sprintf "bad item key %S" key)
  | Some i ->
    let digits = String.sub key (i + 1) (String.length key - i - 1) in
    (match int_of_string_opt digits with
     | Some n -> Ok n
     | None -> Error (Printf.sprintf "bad item key %S" key))

let txn_id ~shards ~sid seq = (seq * shards) + sid
let shard_of_txn ~shards id = id mod shards

(* Shard 0 keeps the historical namespace, so a single-shard platform is
   bit-identical with the pre-sharding layout (checkpoints, records and
   queues land on the same keys). *)
let ns_of_shard sid = if sid = 0 then "/tropic" else Printf.sprintf "/tropic/s%d" sid
let election_path_ns ns = ns ^ "/election"
let input_queue_ns ns = ns ^ "/inputQ"
let phy_queue_ns ns = ns ^ "/phyQ"
(* One prefix, so a new leader reads the whole checkpoint in one round
   trip: "base" and "meta" sort before every overlay, whose key is the
   root's path with '|' for '/' (no segment holds a '|', so no two roots
   share a key). *)
let checkpoint_prefix_ns ns = ns ^ "/checkpoint"
let checkpoint_key_ns ns = checkpoint_prefix_ns ns ^ "/base"
let checkpoint_meta_key_ns ns = checkpoint_prefix_ns ns ^ "/meta"

let overlay_key_ns ns root =
  checkpoint_prefix_ns ns ^ "/"
  ^ String.map (function '/' -> '|' | c -> c) (Data.Path.to_string root)

let txns_prefix_ns ns = ns ^ "/txns"
let executing_prefix_ns ns = ns ^ "/executing"

let executing_key_ns ns txn_id =
  Printf.sprintf "%s/executing/e%010d" ns txn_id

let progress_prefix_ns ns = ns ^ "/progress"

(* Highest log index whose physical action completed (and has not been
   undone): a replaying worker resumes after it instead of re-running
   non-idempotent actions that already took effect on the device. *)
let progress_key_ns ns txn_id =
  Printf.sprintf "%s/progress/p%010d" ns txn_id

let default_ns = ns_of_shard 0
