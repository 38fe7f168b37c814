(* One benchmark repetition: build a deployment, drive a workload through
   the public [Tropic.Platform] client API from a local step loop that
   stops when the drivers finish (not at a horizon), and snapshot every
   counter at the edges of the measured interval, so bootstrap and
   election traffic stay out of the per-transaction ratios. *)

module Platform = Tropic.Platform
module Controller = Tropic.Controller

(* One client request and what became of it. *)
type sample = {
  proc : string;
  args : Data.Value.t list;
  origin : float;
      (* virtual time its latency counts from: the due time of an
         open-loop request, the submit call of a closed-loop one *)
  mutable id : int;
  mutable finished : float;  (* when await returned *)
  mutable state : Tropic.Txn.state option;
}

let sample ~proc ~args ~origin =
  { proc; args; origin; id = -1; finished = Float.nan; state = None }

let committed s = s.state = Some Tropic.Txn.Committed
let latency s = s.finished -. s.origin

type deployment = {
  sim : Des.Sim.t;
  inv : Tcloud.Setup.t;
  platform : Platform.t;
  tracer : Trace.t option;
}

(* Set-up: inventory, Platform.create, first leader elected. *)
let deploy ~seed ~timing ~traced size spec =
  let sim = Des.Sim.create ~seed () in
  let inv = Tcloud.Setup.build ~timing ~rng:(Des.Sim.rng sim) size in
  let tracer = if traced then Some (Trace.create ~sim ()) else None in
  let platform =
    Platform.create
      { spec with Platform.trace = tracer }
      inv.Tcloud.Setup.env ~initial_tree:inv.Tcloud.Setup.tree
      ~devices:inv.Tcloud.Setup.devices sim
  in
  while Option.is_none (Platform.shard_leader platform 0) do
    if Des.Sim.now sim > 60. || not (Des.Sim.step sim) then
      failwith "no controller was elected within 60 s"
  done;
  { sim; inv; platform; tracer }

(* Driver-side state of one repetition, shared by its client sessions. *)
type ctx = {
  d : deployment;
  mutable issued : sample list;  (* newest first *)
  mutable lateness : float;  (* worst open-loop generator lag, virtual s *)
  mutable killed : Controller.t option;
  mutable kill_at : float;
  mutable leader_at : float;  (* another controller took the lease *)
  mutable first_commit_at : float;
      (* first commit returned under the new leader: one the killed
         leader wrote may still return between the kill and leader_at *)
  mutable retired_cpu : float;  (* CPU busy time of killed instances *)
}

(* Submit [s], await its outcome and stamp it: one client request. *)
let execute ctx s =
  ctx.issued <- s :: ctx.issued;
  let platform = ctx.d.platform in
  s.id <- Platform.submit platform ~proc:s.proc ~args:s.args;
  let state = Platform.await platform s.id in
  s.finished <- Des.Proc.now ();
  s.state <- Some state;
  if committed s && s.finished >= ctx.leader_at && Float.is_nan ctx.first_commit_at
  then ctx.first_commit_at <- s.finished

(* A closed-loop request: latency counts from the submit call. *)
let request ctx ~proc ~args =
  execute ctx (sample ~proc ~args ~origin:(Des.Proc.now ()))

(* Run each session body as its own process and wait for all of them. *)
let run_sessions ctx bodies =
  List.mapi
    (fun i body ->
      Des.Proc.spawn ~name:(Printf.sprintf "session-%d" i) ctx.d.sim body)
    bodies
  |> List.iter (fun p -> ignore (Des.Proc.await p))

(* Crash shard 0's leader and restart its slot as a fresh instance, which
   rejoins the election behind the standbys, as a supervisor would.  Call
   from a process. *)
let kill_leader ctx =
  let platform = ctx.d.platform in
  match Platform.leader_index platform with
  | None -> failwith "kill_leader: no leader"
  | Some i ->
    let leader = (Platform.controllers platform).(i) in
    ctx.killed <- Some leader;
    ctx.kill_at <- Des.Proc.now ();
    Platform.kill_controller platform i;
    ctx.retired_cpu <- ctx.retired_cpu +. Controller.cpu_busy_time leader;
    Platform.restart_controller platform i

type counters = {
  events : int;
  flushes : int;  (* coord group-commit appends *)
  cmds : int;  (* client commands those appends carried *)
  cpu_busy : float;
  io_busy : float;
  deferrals : int;
  wakeups : int;
  spurious : int;
}

(* Fail-over-proof totals: the controller instances a restart retired
   plus the current leader. *)
let counters ctx =
  let platform = ctx.d.platform in
  let st = Controller.fresh_stats () in
  Controller.absorb_stats ~into:st (Platform.shard_retired_stats platform 0);
  (match Platform.shard_leader platform 0 with
   | Some leader -> Controller.absorb_stats ~into:st (Controller.stats leader)
   | None -> failwith "counter snapshot without a leader");
  let g = Platform.group_commit_stats platform in
  {
    events = Des.Sim.executed ctx.d.sim;
    flushes = g.Coord.Types.flushes;
    cmds = g.Coord.Types.batched_cmds;
    cpu_busy = Platform.controller_cpu_busy platform +. ctx.retired_cpu;
    io_busy = Platform.coord_io_busy platform;
    deferrals = st.Controller.deferrals;
    wakeups = st.Controller.wakeups;
    spurious = st.Controller.spurious_wakeups;
  }

type rep = {
  ctx : ctx;
  samples : sample list;  (* submission order *)
  t0 : float;  (* virtual measured interval *)
  t1 : float;
  wall_s : float;  (* wall seconds of the measured interval *)
  c0 : counters;
  c1 : counters;
  mean_pending : float;  (* pending events, averaged over the interval *)
}

let platform r = r.ctx.d.platform

(* Drive [d] until [drive], the body of the driver process, returns;
   meanwhile note when a controller replaces a killed leader. *)
let run ~drive d =
  let ctx =
    {
      d;
      issued = [];
      lateness = 0.;
      killed = None;
      kill_at = Float.nan;
      leader_at = Float.nan;
      first_commit_at = Float.nan;
      retired_cpu = 0.;
    }
  in
  let t0 = Des.Sim.now d.sim in
  let c0 = counters ctx in
  let driver = Des.Proc.spawn ~name:"driver" d.sim (fun () -> drive ctx) in
  let steps = ref 0 and pending = ref 0 in
  let wall0 = Stats.wall () in
  while Option.is_none (Des.Proc.result driver) do
    if Des.Sim.now d.sim > t0 +. 100_000. || not (Des.Sim.step d.sim) then
      failwith "the drivers did not finish";
    incr steps;
    if !steps land 1023 = 0 then pending := !pending + Des.Sim.pending d.sim;
    match ctx.killed with
    | Some dead when Float.is_nan ctx.leader_at -> (
      match Platform.shard_leader d.platform 0 with
      | Some c when c != dead -> ctx.leader_at <- Des.Sim.now d.sim
      | Some _ | None -> ())
    | Some _ | None -> ()
  done;
  let wall_s = Stats.wall () -. wall0 in
  (match Des.Proc.result driver with
   | Some (Error e) -> failwith ("driver crashed: " ^ Printexc.to_string e)
   | Some (Ok ()) | None -> ());
  {
    ctx;
    samples = List.rev ctx.issued;
    t0;
    t1 = Des.Sim.now d.sim;
    wall_s;
    c0;
    c1 = counters ctx;
    mean_pending = float_of_int !pending /. float_of_int (max 1 (!steps / 1024));
  }

(* Fingerprint of everything the virtual clock decided in [r]. *)
let digest r =
  let b = Buffer.create 65536 in
  Printf.bprintf b "%d %h %h|" (r.c1.events - r.c0.events) r.t0 r.t1;
  List.iter
    (fun s ->
      Printf.bprintf b "%d %s %h %h;" s.id
        (match s.state with
         | Some st -> Tropic.Txn.state_to_string st
         | None -> "-")
        s.origin s.finished)
    r.samples;
  Digest.to_hex (Digest.string (Buffer.contents b))
