type config = {
  enabled : bool;
  latency_factor : float;
  slack : float;
  term_grace : float;
  kill_grace : float;
  poll_interval : float;
}

let default_config =
  {
    enabled = true;
    latency_factor = 4.;
    slack = 5.;
    term_grace = 10.;
    kill_grace = 10.;
    poll_interval = 2.;
  }

let disabled = { default_config with enabled = false }

type stage = Armed | Termed | Killed

type entry = { deadline : float; mutable stage : stage; mutable stage_at : float }

type t = {
  cfg : config;
  table : (int, entry) Hashtbl.t;
}

let create cfg = { cfg; table = Hashtbl.create 16 }

(* Expected wall-clock of a transaction's physical phase: the sum of its
   actions' nominal device latencies, scaled by [latency_factor] to absorb
   queueing, retries and backoff, plus a flat [slack] for dispatch. *)
let estimate cfg (log : Xlog.t) =
  let work =
    List.fold_left
      (fun acc (record : Xlog.record) ->
        acc +. Devices.Device.default_latency record.Xlog.action)
      0. log
  in
  cfg.slack +. (cfg.latency_factor *. work)

(* One watchdog pass.  [started] is the authoritative list of in-flight
   transactions; table entries for anything else are dropped (the txn
   finished), and unseen Started txns are armed with a deadline measured
   from this pass — which is exactly what makes leader recovery idempotent:
   a fresh leader re-derives the whole table from its recovered Started
   set, granting survivors a fresh (conservative) deadline instead of
   inheriting absolute timestamps from a dead leader's clock history. *)
let scan t ~now ~started ~signal =
  if t.cfg.enabled then begin
    let live = Hashtbl.create (max 16 (List.length started)) in
    List.iter (fun (id, _) -> Hashtbl.replace live id ()) started;
    let stale =
      Hashtbl.fold
        (fun id _ acc -> if Hashtbl.mem live id then acc else id :: acc)
        t.table []
    in
    List.iter (Hashtbl.remove t.table) stale;
    List.iter
      (fun (id, log) ->
        match Hashtbl.find_opt t.table id with
        | None ->
          Hashtbl.replace t.table id
            {
              deadline = now +. estimate t.cfg log;
              stage = Armed;
              stage_at = now;
            }
        | Some entry ->
          (match entry.stage with
           | Armed ->
             if now >= entry.deadline then begin
               entry.stage <- Termed;
               entry.stage_at <- now;
               signal id Proto.Term
             end
           | Termed ->
             if now >= entry.stage_at +. t.cfg.term_grace then begin
               entry.stage <- Killed;
               entry.stage_at <- now;
               signal id Proto.Kill
             end
           | Killed ->
             (* Still Started after a KILL: the kill item may have been
                lost with a dead leader.  Re-issue — the handler is
                idempotent. *)
             if now >= entry.stage_at +. t.cfg.kill_grace then begin
               entry.stage_at <- now;
               signal id Proto.Kill
             end))
      started
  end
