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

let backoff_delay policy ~rng n =
  let nominal = backoff_nominal policy n in
  if policy.jitter > 0. then
    nominal *. (1. +. Des.Dist.uniform rng ~lo:(-.policy.jitter) ~hi:policy.jitter)
  else nominal

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
   reported as a retryable timeout.  With no deadline it runs inline. *)
let invoke_deadline ~sim ~deadline ~counters ~action invoke =
  match deadline with
  | None -> invoke ()
  | Some limit ->
    let reply = Des.Channel.create () in
    let child =
      Des.Proc.spawn ~name:(Printf.sprintf "phy-action:%s" action) sim
        (fun () -> Des.Channel.send reply (invoke ()))
    in
    (match Des.Channel.recv_timeout reply ~timeout:limit with
     | Some result -> result
     | None ->
       Des.Proc.kill child;
       counters.timeouts <- counters.timeouts + 1;
       Error
         {
           Devices.Device.reason =
             Printf.sprintf "action %s exceeded %.1fs deadline" action limit;
           transient = true;
         })

(* Outcome of one logical action after retries: success, a definitive
   failure (permanent error or attempts exhausted), or an operator signal
   observed while backing off. *)
type attempt_outcome =
  | A_ok
  | A_error of string
  | A_signal of [ `Term | `Kill ]

(* One replay's context: the devices and policy, the clock its deadlines
   and backoffs run on, the counters it bumps, and the tracer with the
   owning transaction id and the worker's lane.  Spans auto-parent onto
   the innermost open span of that transaction in the same lane (the
   worker's replay or undo span). *)
type ctx = {
  devices : device_lookup;
  policy : retry_policy;
  sim : Des.Sim.t;
  counters : counters;
  trace : Trace.t;
  txn : int;
  lane : int;
}

let begin_span ctx ~cat ~name ~attrs =
  Trace.begin_span ctx.trace ~txn:ctx.txn ~lane:ctx.lane ~cat ~name ~attrs ()

(* A worker kill unwinds straight out of a hung device invocation, so any
   span open across an invocation must be closed on the way out or it
   outlives its parent (the replay span, closed by the worker's own
   unwind handler).  The thunk is expected to close [sid] itself on
   every normal path; [end_span] is idempotent, so that close wins and
   the finalizer's [outcome=interrupted] only lands on an unwind. *)
let protect_span ctx sid f =
  Fun.protect
    ~finally:(fun () ->
      Trace.end_span ctx.trace ~attrs:[ ("outcome", "interrupted") ] sid)
    f

let invoke_with_retry ctx ~check_signal (record : Xlog.record) ~action ~args =
  let c = ctx.counters in
  let rec attempt n =
    let sid =
      begin_span ctx ~cat:"physical"
        ~name:("action:" ^ action)
        ~attrs:
          [ ("index", string_of_int record.Xlog.index);
            ("attempt", string_of_int n) ]
    in
    let result =
      protect_span ctx sid (fun () ->
          match
            invoke_deadline ~sim:ctx.sim ~deadline:ctx.policy.deadline
              ~counters:c ~action (fun () ->
                invoke_record ~devices:ctx.devices record ~action ~args)
          with
          | Ok () ->
            Trace.end_span ctx.trace ~attrs:[ ("outcome", "ok") ] sid;
            Ok ()
          | Error err ->
            Trace.end_span ctx.trace
              ~attrs:
                [ ("outcome", "error"); ("reason", err.Devices.Device.reason);
                  ("transient", string_of_bool err.Devices.Device.transient)
                ]
              sid;
            Error err)
    in
    match result with
    | Ok () -> A_ok
    | Error err ->
      if err.Devices.Device.transient then
        c.transient_failures <- c.transient_failures + 1;
      if err.Devices.Device.transient && n < ctx.policy.max_attempts then begin
        c.retries <- c.retries + 1;
        let delay = backoff_delay ctx.policy ~rng:(Des.Sim.rng ctx.sim) n in
        let backoff =
          begin_span ctx ~cat:"physical" ~name:"backoff"
            ~attrs:
              [ ("attempt", string_of_int n);
                ("delay", Printf.sprintf "%.3f" delay) ]
        in
        protect_span ctx backoff (fun () ->
            Des.Proc.sleep delay;
            Trace.end_span ctx.trace backoff);
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
   convert a clean abort into a Failed transaction.  Each undo gets one
   span; its attempts are not traced. *)
let undo_executed ctx ~progress executed =
  let untraced = { ctx with trace = Trace.off } in
  let rec go = function
    | [] -> Ok ()
    | (record : Xlog.record) :: rest ->
      (match record.Xlog.undo with
       | None -> Error (record.Xlog.index, "irreversible action")
       | Some undo_action ->
         let sid =
           begin_span ctx ~cat:"undo"
             ~name:("undo:" ^ undo_action)
             ~attrs:[ ("index", string_of_int record.Xlog.index) ]
         in
         (match
            protect_span ctx sid (fun () ->
                match
                  invoke_with_retry untraced
                    ~check_signal:(fun () -> `Go)
                    record ~action:undo_action ~args:record.Xlog.undo_args
                with
                | A_ok ->
                  Trace.end_span ctx.trace ~attrs:[ ("outcome", "ok") ] sid;
                  Ok ()
                | A_error reason ->
                  Trace.end_span ctx.trace
                    ~attrs:[ ("outcome", "error"); ("reason", reason) ]
                    sid;
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

let execute ~devices ~sim ~counters ~tracer:(trace, txn, lane)
    ?(check_signal = fun () -> `Go) ?(policy = no_retry) ?(skip = 0)
    ?(on_progress = ignore) log =
  let ctx = { devices; policy; sim; counters; trace; txn; lane } in
  (* [executed] accumulates completed records, newest first. *)
  let rec run executed = function
    | [] -> Proto.Phy_committed
    | (record : Xlog.record) :: rest ->
      (match check_signal () with
       | `Kill -> Proto.Phy_failed "killed by operator"
       | `Term -> roll_back executed "terminated by operator"
       | `Go ->
         (match
            invoke_with_retry ctx ~check_signal record
              ~action:record.Xlog.action ~args:record.Xlog.args
          with
          | A_ok ->
            on_progress record.Xlog.index;
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
       effects.  [check_signal] re-reads the authoritative record; once
       the transaction is terminal it answers [`Kill] and the rollback is
       abandoned. *)
    if executed <> [] && check_signal () = `Kill then
      Proto.Phy_aborted
        (reason ^ "; rollback skipped: transaction already terminal")
    else
    let t0 = Des.Sim.now sim in
    let sid =
      begin_span ctx ~cat:"undo" ~name:"undo"
        ~attrs:
          [ ("actions", string_of_int (List.length executed));
            ("cause", reason) ]
    in
    protect_span ctx sid (fun () ->
        let result = undo_executed ctx ~progress:on_progress executed in
        counters.undo_s <- counters.undo_s +. (Des.Sim.now sim -. t0);
        match result with
        | Ok () ->
          Trace.end_span trace ~attrs:[ ("outcome", "ok") ] sid;
          Proto.Phy_aborted reason
        | Error (index, undo_reason) ->
          Trace.end_span trace
            ~attrs:
              [ ("outcome", "failed"); ("undo_index", string_of_int index);
                ("reason", undo_reason) ]
            sid;
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
