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

(* Serialization cache: a record is persisted at *every* state transition,
   but [args] never change after creation and [log]/[locks] are rebound
   only when simulation fills them in — yet the old code re-rendered all
   three sexp subtrees on each persist.  On the group-commit hot path that
   re-rendering (one full log serialization per Accepted → Started →
   terminal hop) dominated allocation, so the rendered subtrees are cached
   and keyed on the *physical identity* of the log and lock lists: any
   rebind invalidates, and sexps are immutable so sharing them is safe. *)
type ser_cache = {
  c_log : Xlog.t;
  c_locks : (Data.Path.t * Mglock.mode) list;
  c_args : Data.Sexp.t;
  c_log_sexp : Data.Sexp.t;
  c_locks_sexp : Data.Sexp.t;
}

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
  mutable ser_cache : ser_cache option;
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
    ser_cache = None;
  }

let write_paths t =
  List.filter_map
    (fun (path, mode) -> if mode = Mglock.W then Some path else None)
    t.locks

let record_key_ns ns id = Printf.sprintf "%s/txns/t%010d" ns id
let record_key id = record_key_ns "/tropic" id

let mode_to_sexp mode = Data.Sexp.Atom (Mglock.mode_to_string mode)

let mode_of_sexp = function
  | Data.Sexp.Atom "R" -> Ok Mglock.R
  | Data.Sexp.Atom "W" -> Ok Mglock.W
  | Data.Sexp.Atom "IR" -> Ok Mglock.IR
  | Data.Sexp.Atom "IW" -> Ok Mglock.IW
  | other -> Error ("bad lock mode: " ^ Data.Sexp.to_string other)

let locks_to_sexp locks =
  Data.Sexp.List
    (List.map
       (fun (path, mode) ->
         Data.Sexp.List [ Data.Path.to_sexp path; mode_to_sexp mode ])
       locks)

let cached_parts t =
  match t.ser_cache with
  | Some c when c.c_log == t.log && c.c_locks == t.locks ->
    (c.c_args, c.c_log_sexp, c.c_locks_sexp)
  | stale ->
    (* Args never change; a stale cache still holds their rendering. *)
    let c_args =
      match stale with
      | Some c -> c.c_args
      | None -> Data.Sexp.List (List.map Data.Value.to_sexp t.args)
    in
    let c =
      {
        c_log = t.log;
        c_locks = t.locks;
        c_args;
        c_log_sexp = Xlog.to_sexp t.log;
        c_locks_sexp = locks_to_sexp t.locks;
      }
    in
    t.ser_cache <- Some c;
    (c.c_args, c.c_log_sexp, c.c_locks_sexp)

let to_sexp t =
  let args_sexp, log_sexp, locks_sexp = cached_parts t in
  let open Data.Sexp in
  (* Only a TERMed record carries the flag: others encode as before. *)
  let termed =
    if t.termed then [ List [ Atom "termed"; Atom "true" ] ] else []
  in
  List
    ([
      List [ Atom "id"; of_int t.id ];
      List [ Atom "proc"; Atom t.proc ];
      List [ Atom "args"; args_sexp ];
      List [ Atom "state"; Atom (state_to_string t.state) ];
      List [ Atom "log"; log_sexp ];
      List [ Atom "locks"; locks_sexp ];
      List [ Atom "submitted"; of_float t.submitted_at ];
      List
        [
          Atom "start_seq";
          (match t.start_seq with Some n -> of_int n | None -> Atom "none");
        ];
    ]
    @ termed)

let ( let* ) r f = Result.bind r f

let of_sexp sexp =
  let* fields = Data.Sexp.to_list sexp in
  let* id = Result.bind (Data.Sexp.assoc "id" fields) Data.Sexp.to_int in
  let* proc = Result.bind (Data.Sexp.assoc "proc" fields) Data.Sexp.to_atom in
  let* args_sexp = Data.Sexp.assoc "args" fields in
  let* args_list = Data.Sexp.to_list args_sexp in
  let* args = Data.Sexp.map_result Data.Value.of_sexp args_list in
  let* state_str =
    Result.bind (Data.Sexp.assoc "state" fields) Data.Sexp.to_atom
  in
  let* state = state_of_string state_str in
  let* log = Result.bind (Data.Sexp.assoc "log" fields) Xlog.of_sexp in
  let* locks_sexp = Data.Sexp.assoc "locks" fields in
  let* locks_list = Data.Sexp.to_list locks_sexp in
  let* locks =
    Data.Sexp.map_result
      (function
        | Data.Sexp.List [ path; mode ] ->
          let* path = Data.Path.of_sexp path in
          let* mode = mode_of_sexp mode in
          Ok (path, mode)
        | other -> Error ("bad lock entry: " ^ Data.Sexp.to_string other))
      locks_list
  in
  let* submitted_at =
    Result.bind (Data.Sexp.assoc "submitted" fields) Data.Sexp.to_float
  in
  let* start_seq =
    match Data.Sexp.assoc "start_seq" fields with
    | Ok (Data.Sexp.Atom "none") -> Ok None
    | Ok s ->
      let* n = Data.Sexp.to_int s in
      Ok (Some n)
    | Error _ -> Ok None
  in
  let termed = Data.Sexp.assoc "termed" fields = Ok (Data.Sexp.Atom "true") in
  Ok
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
      ser_cache = None;
    }

let to_string t = Data.Sexp.to_string (to_sexp t)

let of_string s =
  let* sexp = Data.Sexp.of_string s in
  of_sexp sexp
