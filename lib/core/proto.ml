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

module Print = Data.Sexp.Print
module Read = Data.Sexp.Read

(* A result carries its durations to the microsecond. *)
let micros s = float_of_string (Printf.sprintf "%.6f" s)

(* Codec: (request <proc> (<arg>...)),
   (result <id> (committed)|(aborted <r>)|(failed <r>) <retries> <transient>
   <timeouts> <replay_s> <undo_s>), (control reload|repair <path>),
   (control signal <id> TERM|KILL). *)
let input_to_string item =
  Print.to_string (fun p ->
      Print.list p (fun p ->
          match item with
          | Request { proc; args } ->
            Print.atom p "request";
            Print.atom p proc;
            Print.list p (fun p -> List.iter (Data.Value.print p) args)
          | Result { txn_id; outcome; exec } ->
            Print.atom p "result";
            Print.int p txn_id;
            Print.list p (fun p ->
                match outcome with
                | Phy_committed -> Print.atom p "committed"
                | Phy_aborted reason ->
                  Print.atom p "aborted";
                  Print.atom p reason
                | Phy_failed reason ->
                  Print.atom p "failed";
                  Print.atom p reason);
            Print.int p exec.retries;
            Print.int p exec.transient_failures;
            Print.int p exec.timeouts;
            Print.float p (micros exec.replay_s);
            Print.float p (micros exec.undo_s)
          | Control control ->
            Print.atom p "control";
            (match control with
             | Reload path ->
               Print.atom p "reload";
               Data.Path.print p path
             | Repair path ->
               Print.atom p "repair";
               Data.Path.print p path
             | Signal (txn_id, signal) ->
               Print.atom p "signal";
               Print.int p txn_id;
               Print.atom p (signal_to_string signal))))

let input_of_string =
  Read.of_string (fun r ->
      Read.enter r;
      let item =
        match Read.atom r with
        | "request" ->
          let proc = Read.atom r in
          Request { proc; args = Read.list r Data.Value.read }
        | "result" ->
          let txn_id = Read.int r in
          Read.enter r;
          let outcome =
            match Read.atom r with
            | "committed" -> Phy_committed
            | "aborted" -> Phy_aborted (Read.atom r)
            | "failed" -> Phy_failed (Read.atom r)
            | other -> Read.fail r ("bad outcome: " ^ other)
          in
          Read.leave r;
          let retries = Read.int r in
          let transient_failures = Read.int r in
          let timeouts = Read.int r in
          let replay_s = Read.float r in
          let undo_s = Read.float r in
          Result
            { txn_id; outcome;
              exec = { retries; transient_failures; timeouts; replay_s; undo_s } }
        | "control" ->
          (match Read.atom r with
           | "reload" -> Control (Reload (Data.Path.read r))
           | "repair" -> Control (Repair (Data.Path.read r))
           | "signal" ->
             let txn_id = Read.int r in
             (match signal_of_string (Read.atom r) with
              | Ok signal -> Control (Signal (txn_id, signal))
              | Error msg -> Read.fail r msg)
           | other -> Read.fail r ("bad control: " ^ other))
        | other -> Read.fail r ("bad input item: " ^ other)
      in
      Read.leave r;
      item)

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
