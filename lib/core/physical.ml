type device_lookup = Data.Path.t -> Devices.Device.t option
type signal_check = unit -> [ `Go | `Term | `Kill ]

type retry_policy = {
  max_attempts : int;
  backoff_base : float;
  backoff_factor : float;
  backoff_cap : float;
  jitter : float;
  deadline : float option;
}

let no_retry =
  {
    max_attempts = 1;
    backoff_base = 0.;
    backoff_factor = 2.;
    backoff_cap = 0.;
    jitter = 0.;
    deadline = None;
  }

let default_retry =
  {
    max_attempts = 4;
    backoff_base = 0.5;
    backoff_factor = 2.;
    backoff_cap = 8.;
    jitter = 0.5;
    deadline = Some 30.;
  }

type counters = {
  mutable retries : int;
  mutable transient_failures : int;
  mutable timeouts : int;
  mutable undo_s : float;
}

let fresh_counters () =
  { retries = 0; transient_failures = 0; timeouts = 0; undo_s = 0. }

let backoff_nominal policy n =
  let n = max 1 n in
  Float.min policy.backoff_cap
    (policy.backoff_base *. (policy.backoff_factor ** float_of_int (n - 1)))

let backoff_delay policy ?rng n =
  let nominal = backoff_nominal policy n in
  match rng with
  | Some rng when policy.jitter > 0. ->
    nominal *. (1. +. Des.Dist.uniform rng ~lo:(-.policy.jitter) ~hi:policy.jitter)
  | _ -> nominal

let lookup_of_list devices =
  let table = Hashtbl.create (max 16 (List.length devices)) in
  List.iter
    (fun device ->
      Hashtbl.replace table
        (Data.Path.to_string (Devices.Device.root device))
        device)
    devices;
  fun path ->
    let rec search p =
      match Hashtbl.find_opt table (Data.Path.to_string p) with
      | Some device -> Some device
      | None ->
        (match Data.Path.parent p with
         | Some parent -> search parent
         | None -> None)
    in
    search path

let invoke_record ~devices (record : Xlog.record) ~action ~args =
  match devices record.Xlog.path with
  | None ->
    Error
      {
        Devices.Device.reason =
          Printf.sprintf "no device for %s"
            (Data.Path.to_string record.Xlog.path);
        transient = false;
      }
  | Some device -> Devices.Device.invoke device ~action ~args

(* Run one invocation under a per-action deadline.  The invocation runs
   in a child process so a hung device parks the child, not the caller:
   on timeout the child is killed (unwinding the hang) and the attempt is
   reported as a retryable timeout.  Requires [sim]; without it the
   invocation runs inline with no deadline. *)
let invoke_deadline ~sim ~deadline ~counters ~action invoke =
  match sim, deadline with
  | Some sim, Some limit ->
    let reply = Des.Channel.create ~name:"phy-deadline" () in
    let child =
      Des.Proc.spawn ~name:(Printf.sprintf "phy-action:%s" action) sim
        (fun () -> Des.Channel.send reply (invoke ()))
    in
    (match Des.Channel.recv_timeout reply ~timeout:limit with
     | Some result -> result
     | None ->
       Des.Proc.kill child;
       (match counters with
        | Some c -> c.timeouts <- c.timeouts + 1
        | None -> ());
       Error
         {
           Devices.Device.reason =
             Printf.sprintf "action %s exceeded %.1fs deadline" action limit;
           transient = true;
         })
  | _ -> invoke ()

(* Outcome of one logical action after retries: success, a definitive
   failure (permanent error or attempts exhausted), or an operator signal
   observed while backing off. *)
type attempt_outcome =
  | A_ok
  | A_error of string
  | A_signal of [ `Term | `Kill ]

(* Spans around attempts and backoffs.  [tracer] is the recorder plus the
   owning transaction id and the worker's lane; spans auto-parent onto
   the innermost open span of that transaction in the same lane (the
   worker's replay or undo span). *)
let trace_span tracer ~cat ~name ~attrs =
  Option.map
    (fun (tr, txn, lane) ->
      (tr, Trace.begin_span tr ~txn ~lane ~cat ~name ~attrs ()))
    tracer

let trace_end opened ~attrs =
  Option.iter (fun (tr, sid) -> Trace.end_span tr ~attrs sid) opened

(* A worker kill unwinds straight out of a hung device invocation, so any
   span open across an invocation must be closed on the way out or it
   outlives its parent (the replay span, closed by the worker's own
   unwind handler).  The thunk is expected to close [opened] itself on
   every normal path; [end_span] is idempotent, so that close wins and
   the finalizer's [outcome=interrupted] only lands on an unwind. *)
let protect_span opened f =
  Fun.protect
    ~finally:(fun () -> trace_end opened ~attrs:[ ("outcome", "interrupted") ])
    f

let invoke_with_retry ~devices ~policy ~rng ~sim ~counters ~check_signal
    ~tracer (record : Xlog.record) ~action ~args =
  let count f = match counters with Some c -> f c | None -> () in
  let rec attempt n =
    let opened =
      trace_span tracer ~cat:"physical"
        ~name:("action:" ^ action)
        ~attrs:
          [ ("index", string_of_int record.Xlog.index);
            ("attempt", string_of_int n) ]
    in
    let result =
      protect_span opened (fun () ->
          match
            invoke_deadline ~sim ~deadline:policy.deadline ~counters ~action
              (fun () -> invoke_record ~devices record ~action ~args)
          with
          | Ok () ->
            trace_end opened ~attrs:[ ("outcome", "ok") ];
            Ok ()
          | Error err ->
            trace_end opened
              ~attrs:
                [ ("outcome", "error"); ("reason", err.Devices.Device.reason);
                  ("transient", string_of_bool err.Devices.Device.transient)
                ];
            Error err)
    in
    match result with
    | Ok () -> A_ok
    | Error err ->
      if err.Devices.Device.transient then
        count (fun c -> c.transient_failures <- c.transient_failures + 1);
      if err.Devices.Device.transient && n < policy.max_attempts then begin
        count (fun c -> c.retries <- c.retries + 1);
        (* Backing off takes simulated time only when we have a clock to
           sleep on; instant-timing unit tests retry immediately. *)
        (match sim with
         | Some _ ->
           let delay = backoff_delay policy ?rng n in
           let backoff =
             trace_span tracer ~cat:"physical" ~name:"backoff"
               ~attrs:
                 [ ("attempt", string_of_int n);
                   ("delay", Printf.sprintf "%.3f" delay) ]
           in
           protect_span backoff (fun () ->
               Des.Proc.sleep delay;
               trace_end backoff ~attrs:[])
         | None -> ());
        match check_signal () with
        | `Go -> attempt (n + 1)
        | (`Term | `Kill) as s -> A_signal s
      end
      else
        A_error
          (if n > 1 then
             Printf.sprintf "%s (after %d attempts)"
               err.Devices.Device.reason n
           else err.Devices.Device.reason)
  in
  attempt 1

(* Undo the given (already executed) records, newest first.  Returns the
   index of the first record whose undo failed, if any.  Undos ignore
   operator signals (they already serve a Term) but keep the retry policy
   and deadline, so a transient blip or hang during rollback does not
   convert a clean abort into a Failed transaction. *)
let undo_executed ~devices ?(policy = no_retry) ?rng ?sim ?counters ?tracer
    ?on_progress executed =
  let progress i = match on_progress with Some f -> f i | None -> () in
  let rec go = function
    | [] -> Ok ()
    | (record : Xlog.record) :: rest ->
      (match record.Xlog.undo with
       | None -> Error (record.Xlog.index, "irreversible action")
       | Some undo_action ->
         let opened =
           trace_span tracer ~cat:"undo"
             ~name:("undo:" ^ undo_action)
             ~attrs:[ ("index", string_of_int record.Xlog.index) ]
         in
         (match
            protect_span opened (fun () ->
                match
                  invoke_with_retry ~devices ~policy ~rng ~sim ~counters
                    ~tracer:None
                    ~check_signal:(fun () -> `Go)
                    record ~action:undo_action ~args:record.Xlog.undo_args
                with
                | A_ok ->
                  trace_end opened ~attrs:[ ("outcome", "ok") ];
                  Ok ()
                | A_error reason ->
                  trace_end opened
                    ~attrs:[ ("outcome", "error"); ("reason", reason) ];
                  Error reason
                | A_signal _ -> assert false)
          with
          | Ok () ->
            (* The record's effect is off the device: move the replay
               cursor below it so a crash mid-rollback does not resume
               past work that has been unwound. *)
            progress (record.Xlog.index - 1);
            go rest
          | Error reason -> Error (record.Xlog.index, reason)))
  in
  go executed

let execute ~devices ?(check_signal = fun () -> `Go) ?(policy = no_retry) ?rng
    ?sim ?counters ?tracer ?(skip = 0) ?on_progress
    ?(confirm_undo = fun () -> true) log =
  let progress i = match on_progress with Some f -> f i | None -> () in
  (* [executed] accumulates completed records, newest first. *)
  let rec run executed = function
    | [] -> Proto.Phy_committed
    | (record : Xlog.record) :: rest ->
      (match check_signal () with
       | `Kill -> Proto.Phy_failed "killed by operator"
       | `Term -> roll_back executed "terminated by operator"
       | `Go ->
         (match
            invoke_with_retry ~devices ~policy ~rng ~sim ~counters ~tracer
              ~check_signal record ~action:record.Xlog.action
              ~args:record.Xlog.args
          with
          | A_ok ->
            progress record.Xlog.index;
            run (record :: executed) rest
          | A_signal `Kill -> Proto.Phy_failed "killed by operator"
          | A_signal `Term -> roll_back executed "terminated by operator"
          | A_error reason ->
            roll_back executed
              (Printf.sprintf "action #%d %s: %s" record.Xlog.index
                 record.Xlog.action reason)))
  and roll_back executed reason =
    (* Two workers can replay the same transaction when an executing
       marker expires under a live session (fail-over semantics).  The
       losing duplicate typically aborts on the winner's already-applied
       state — and with a resume prefix its undo stack holds actions it
       never ran, so unwinding would corrupt the winner's committed
       effects.  [confirm_undo] re-reads the authoritative record; once
       the transaction is terminal the rollback is abandoned. *)
    if executed <> [] && not (confirm_undo ()) then
      Proto.Phy_aborted
        (reason ^ "; rollback skipped: transaction already terminal")
    else
    let t0 = Option.map Des.Sim.now sim in
    let opened =
      trace_span tracer ~cat:"undo" ~name:"undo"
        ~attrs:
          [ ("actions", string_of_int (List.length executed));
            ("cause", reason) ]
    in
    protect_span opened (fun () ->
        let result =
          undo_executed ~devices ~policy ?rng ?sim ?counters ?tracer
            ?on_progress executed
        in
        (match (t0, sim, counters) with
         | Some t0, Some sim, Some c ->
           c.undo_s <- c.undo_s +. (Des.Sim.now sim -. t0)
         | _ -> ());
        match result with
        | Ok () ->
          trace_end opened ~attrs:[ ("outcome", "ok") ];
          Proto.Phy_aborted reason
        | Error (index, undo_reason) ->
          trace_end opened
            ~attrs:
              [ ("outcome", "failed"); ("undo_index", string_of_int index);
                ("reason", undo_reason) ];
          Proto.Phy_failed
            (Printf.sprintf "%s; undo #%d failed: %s" reason index undo_reason))
  in
  (* A resumed replay treats the first [skip] records as already applied:
     they are not re-invoked, but they join the undo prefix so a later
     failure rolls the whole transaction back, not just the tail. *)
  let rec split n acc = function
    | x :: tl when n > 0 -> split (n - 1) (x :: acc) tl
    | rest -> (acc, rest)
  in
  let skipped, rest = split skip [] log in
  run skipped rest
