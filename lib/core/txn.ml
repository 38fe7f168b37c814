type state =
  | Initialized
  | Accepted
  | Deferred
  | Started
  | Committed
  | Aborted of string
  | Failed of string

let state_to_string = function
  | Initialized -> "initialized"
  | Accepted -> "accepted"
  | Deferred -> "deferred"
  | Started -> "started"
  | Committed -> "committed"
  | Aborted reason -> "aborted:" ^ reason
  | Failed reason -> "failed:" ^ reason

let state_of_string s =
  let tagged prefix =
    let plen = String.length prefix in
    if String.length s >= plen && String.sub s 0 plen = prefix then
      Some (String.sub s plen (String.length s - plen))
    else None
  in
  match s with
  | "initialized" -> Ok Initialized
  | "accepted" -> Ok Accepted
  | "deferred" -> Ok Deferred
  | "started" -> Ok Started
  | "committed" -> Ok Committed
  | _ ->
    (match tagged "aborted:" with
     | Some reason -> Ok (Aborted reason)
     | None ->
       (match tagged "failed:" with
        | Some reason -> Ok (Failed reason)
        | None -> Error (Printf.sprintf "unknown txn state %S" s)))

let overload_reason = "overload: admission queue full"

let is_overload = function
  | Aborted reason -> reason = overload_reason
  | Initialized | Accepted | Deferred | Started | Committed | Failed _ -> false

let is_terminal = function
  | Committed | Aborted _ | Failed _ -> true
  | Initialized | Accepted | Deferred | Started -> false

type t = {
  id : int;
  proc : string;
  args : Data.Value.t list;
  mutable state : state;
  mutable log : Xlog.t;
  mutable locks : (Data.Path.t * Mglock.mode) list;
  mutable start_seq : int option;
  mutable termed : bool;
  mutable submitted_at : float;
  mutable finished_at : float option;
}

let make ~id ~proc ~args ~submitted_at =
  {
    id;
    proc;
    args;
    state = Initialized;
    log = [];
    locks = [];
    start_seq = None;
    termed = false;
    submitted_at;
    finished_at = None;
  }

let write_paths t =
  List.filter_map
    (fun (path, mode) -> if mode = Mglock.W then Some path else None)
    t.locks

let record_key_ns ns id = Printf.sprintf "%s/txns/t%010d" ns id
let record_key id = record_key_ns "/tropic" id

module Print = Data.Sexp.Print
module Read = Data.Sexp.Read

(* Codec: ((id <n>) (proc <p>) (args (<v>...)) (state <s>) (log <log>)
   (locks ((<path> <mode>)...)) (submitted <t>) (start_seq <n>|none)),
   then (termed true) on a TERMed record only. *)
let to_string t =
  Print.to_string (fun p ->
      Print.list p (fun p ->
          Print.field p "id" (fun p -> Print.int p t.id);
          Print.field p "proc" (fun p -> Print.atom p t.proc);
          Print.field p "args" (fun p ->
              Print.list p (fun p -> List.iter (Data.Value.print p) t.args));
          Print.field p "state" (fun p -> Print.atom p (state_to_string t.state));
          Print.field p "log" (fun p -> Xlog.print p t.log);
          Print.field p "locks" (fun p ->
              Print.list p (fun p ->
                  List.iter
                    (fun (path, mode) ->
                      Print.list p (fun p ->
                          Data.Path.print p path;
                          Print.atom p (Mglock.mode_to_string mode)))
                    t.locks));
          Print.field p "submitted" (fun p -> Print.float p t.submitted_at);
          Print.field p "start_seq" (fun p ->
              match t.start_seq with Some n -> Print.int p n | None -> Print.atom p "none");
          if t.termed then Print.field p "termed" (fun p -> Print.atom p "true")))

let mode_of_string r = function
  | "R" -> Mglock.R
  | "W" -> Mglock.W
  | "IR" -> Mglock.IR
  | "IW" -> Mglock.IW
  | other -> Read.fail r ("bad lock mode: " ^ other)

let of_string =
  Read.of_string (fun r ->
      Read.enter r;
      let id = Read.field r "id" Read.int in
      let proc = Read.field r "proc" Read.atom in
      let args = Read.field r "args" (fun r -> Read.list r Data.Value.read) in
      let state =
        Read.field r "state" (fun r ->
            match state_of_string (Read.atom r) with
            | Ok state -> state
            | Error msg -> Read.fail r msg)
      in
      let log = Read.field r "log" Xlog.read in
      let locks =
        Read.field r "locks" (fun r ->
            Read.list r (fun r ->
                Read.enter r;
                let path = Data.Path.read r in
                let mode = mode_of_string r (Read.atom r) in
                Read.leave r;
                (path, mode)))
      in
      let submitted_at = Read.field r "submitted" Read.float in
      let start_seq =
        Read.field r "start_seq" (fun r ->
            match Read.atom r with
            | "none" -> None
            | s ->
              (match int_of_string_opt s with
               | Some n -> Some n
               | None -> Read.fail r (Printf.sprintf "not an int: %S" s)))
      in
      let termed =
        (not (Read.at_end r)) && Read.field r "termed" (fun r -> Read.atom r = "true")
      in
      Read.leave r;
      {
        id;
        proc;
        args;
        state;
        log;
        locks;
        start_seq;
        termed;
        submitted_at;
        finished_at = None;
      })
