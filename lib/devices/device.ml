type timing = [ `Process | `Instant ]

type error = { reason : string; transient : bool }

let error_to_string e =
  if e.transient then "transient: " ^ e.reason else e.reason

let permanent reason = { reason; transient = false }
let transient reason = { reason; transient = true }

type t = {
  droot : Data.Path.t;
  dkind : string;
  timing : timing;
  latency : string -> float;
  rng : Random.State.t;
  dispatch : action:string -> args:Data.Value.t list -> (unit, string) result;
  export_state : unit -> Data.Tree.node;
  fault_injector : Fault.t;
  mutable is_online : bool;
  mutable op_count : int;
  mutable failure_count : int;
}

let make ~root ~kind ~timing ~latency ~rng ~dispatch ~export_state =
  {
    droot = root;
    dkind = kind;
    timing;
    latency;
    rng;
    dispatch;
    export_state;
    fault_injector = Fault.create ();
    is_online = true;
    op_count = 0;
    failure_count = 0;
  }

let root d = d.droot
let kind d = d.dkind
let faults d = d.fault_injector
let set_online d up = d.is_online <- up
let ops d = d.op_count
let failures d = d.failure_count
let export d = d.export_state ()

(* Rough magnitudes for real cloud operations: storage cloning dominates,
   VM boot comes next, control-plane tweaks are fast. *)
let default_latency action =
  if String.equal action Schema.act_clone_image then 4.0
  else if String.equal action Schema.act_remove_image then 0.8
  else if String.equal action Schema.act_export_image then 0.5
  else if String.equal action Schema.act_unexport_image then 0.3
  else if String.equal action Schema.act_import_image then 0.4
  else if String.equal action Schema.act_unimport_image then 0.3
  else if String.equal action Schema.act_create_vm then 0.6
  else if String.equal action Schema.act_remove_vm then 0.4
  else if String.equal action Schema.act_start_vm then 2.0
  else if String.equal action Schema.act_stop_vm then 1.0
  else 0.2

(* Park the calling process forever: the injected-hang behaviour.  Only a
   kill (worker crash, or the physical layer's per-action deadline) ever
   resumes it — with [Des.Proc.Killed], which unwinds the caller. *)
let hang_forever () = Des.Proc.suspend (fun _proc _resumer () -> ())

let invoke d ~action ~args =
  d.op_count <- d.op_count + 1;
  let result =
    if not d.is_online then
      (* Power loss is an availability blip, the canonical transient error. *)
      Error
        (transient
           (Printf.sprintf "device %s is offline" (Data.Path.to_string d.droot)))
    else begin
      (match d.timing with
       | `Process -> Des.Proc.sleep (d.latency action)
       | `Instant -> ());
      match Fault.check d.fault_injector ~rng:d.rng ~action with
      | Fault.Hang ->
        d.failure_count <- d.failure_count + 1;
        hang_forever ()
      | Fault.Fail (severity, reason) ->
        Error { reason; transient = severity = Fault.Transient }
      | Fault.Pass ->
        (* Precondition violations are permanent: retrying cannot help. *)
        Result.map_error permanent (d.dispatch ~action ~args)
    end
  in
  (match result with
   | Error _ -> d.failure_count <- d.failure_count + 1
   | Ok () -> ());
  result

let str_arg args i =
  match List.nth_opt args i with
  | Some (Data.Value.Str s) -> Ok s
  | Some v ->
    Error
      (Printf.sprintf "argument %d: expected string, got %s" i
         (Data.Value.to_string v))
  | None -> Error (Printf.sprintf "argument %d missing" i)

let int_arg args i =
  match List.nth_opt args i with
  | Some (Data.Value.Int n) -> Ok n
  | Some v ->
    Error
      (Printf.sprintf "argument %d: expected int, got %s" i
         (Data.Value.to_string v))
  | None -> Error (Printf.sprintf "argument %d missing" i)
