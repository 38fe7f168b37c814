type breaker_state = Closed | Tripped | Half_open

type config = {
  enabled : bool;
  alpha : float;
  trip_threshold : float;
  cooldown : float;
  latency_ref : float;
  poll_interval : float;
}

let default_config =
  {
    enabled = true;
    alpha = 0.35;
    trip_threshold = 0.6;
    cooldown = 20.;
    latency_ref = 120.;
    poll_interval = 1.0;
  }

let disabled = { default_config with enabled = false }

type admission = { queue_high : int option; queue_low : int }

let no_admission = { queue_high = None; queue_low = 0 }

type shedder = { admission : admission; mutable shedding : bool }

let shedder admission = { admission; shedding = false }

let shed s ~pending =
  Option.iter
    (fun high ->
      s.shedding <-
        (if s.shedding then pending > s.admission.queue_low else pending >= high))
    s.admission.queue_high;
  s.shedding

type entry = {
  ekey : string; (* root path, for the trace *)
  mutable state : breaker_state;
  mutable failure : float;
  mutable timeout : float;
  mutable latency : float;
  mutable tripped_at : float;
  mutable probe : int option; (* txn id of the outstanding canary *)
  mutable probe_at : float;
}

type t = {
  cfg : config;
  trace : Trace.t;
  st : Stats.stats;
  entries : (string, entry) Hashtbl.t; (* keyed by root path *)
  started : (int, float) Hashtbl.t; (* Started time, for latency scores *)
}

let create ~trace ~stats cfg =
  {
    cfg;
    trace;
    st = stats;
    entries = Hashtbl.create 8;
    started = Hashtbl.create 32;
  }

(* A breaker transition, on the system lane when no canary is involved. *)
let instant t name e ~txn =
  Trace.instant t.trace ~txn:(Option.value txn ~default:0) ~cat:"health" ~name
    ~attrs:[ ("root", e.ekey) ]
    ()

let key root = Data.Path.to_string root

let entry t root =
  let k = key root in
  match Hashtbl.find_opt t.entries k with
  | Some e -> e
  | None ->
    let e =
      {
        ekey = k;
        state = Closed;
        failure = 0.;
        timeout = 0.;
        latency = 0.;
        tripped_at = 0.;
        probe = None;
        probe_at = 0.;
      }
    in
    Hashtbl.replace t.entries k e;
    e

let clamp01 x = if x < 0. then 0. else if x > 1. then 1. else x
let combined e = Float.max e.failure (Float.max e.timeout e.latency)

let trip t e ~now =
  e.state <- Tripped;
  e.tripped_at <- now;
  e.probe <- None;
  t.st.breaker_trips <- t.st.breaker_trips + 1;
  instant t "breaker-trip" e ~txn:None

let gate t ~now ~root =
  if not t.cfg.enabled then `Admit
  else
    match Hashtbl.find_opt t.entries (key root) with
    | None -> `Admit
    | Some e ->
      (match e.state with
       | Closed -> `Admit
       | Tripped ->
         if now -. e.tripped_at >= t.cfg.cooldown then begin
           e.state <- Half_open;
           e.probe <- None;
           `Probe
         end
         else `Defer
       | Half_open ->
         (match e.probe with
          | None -> `Probe
          | Some _ ->
            (* A canary that never reported back (lost with a crashed
               worker) must not wedge the breaker half-open forever: give
               it one cooldown, then re-trip so a later gate re-probes. *)
            if now -. e.probe_at >= t.cfg.cooldown then trip t e ~now;
            `Defer))

let begin_probe t ~now ~root ~txn =
  if t.cfg.enabled then begin
    let e = entry t root in
    match e.state, e.probe with
    | Half_open, None ->
      e.probe <- Some txn;
      e.probe_at <- now;
      t.st.breaker_probes <- t.st.breaker_probes + 1;
      instant t "breaker-probe" e ~txn:(Some txn)
    | _, _ -> ()
  end

let observe t ~now ~root ~txn ~ok ~retries ~timeouts ~latency =
  if t.cfg.enabled then begin
    let e = entry t root in
    let is_probe = e.state = Half_open && e.probe = Some txn in
    let a = t.cfg.alpha in
    let blend score sample = ((1. -. a) *. score) +. (a *. clamp01 sample) in
    e.failure <-
      blend e.failure (if not ok then 1. else if retries > 0 then 0.5 else 0.);
    e.timeout <- blend e.timeout (if timeouts > 0 then 1. else 0.);
    e.latency <- blend e.latency (latency /. Float.max t.cfg.latency_ref 1e-9);
    if is_probe then begin
      if ok then begin
        (* Canary came back clean: close and start from a clean slate so
           stale pre-trip history cannot immediately re-trip. *)
        e.state <- Closed;
        e.probe <- None;
        e.failure <- 0.;
        e.timeout <- 0.;
        e.latency <- 0.;
        t.st.breaker_closes <- t.st.breaker_closes + 1;
        instant t "breaker-close" e ~txn:(Some txn)
      end
      else trip t e ~now
    end
    else
      match e.state with
      | Closed -> if combined e >= t.cfg.trip_threshold then trip t e ~now
      | Tripped | Half_open ->
        (* Stragglers started before the trip only feed the scores; state
           transitions out of Tripped go through gate's cooldown check. *)
        ()
  end

let forget t ~txn =
  Hashtbl.iter
    (fun _ e -> if e.probe = Some txn then e.probe <- None)
    t.entries;
  Hashtbl.remove t.started txn

let admit t ~now roots =
  let gates = List.map (fun root -> (root, gate t ~now ~root)) roots in
  match List.filter (fun (_, g) -> g = `Defer) gates with
  | [] ->
    `Admit
      (List.filter_map
         (fun (root, g) -> if g = `Probe then Some root else None)
         gates)
  | deferred ->
    t.st.breaker_deferrals <- t.st.breaker_deferrals + 1;
    `Defer (List.map fst deferred)

let start t ~now ~txn ~probes =
  List.iter (fun root -> begin_probe t ~now ~root ~txn) probes;
  Hashtbl.replace t.started txn now

let report t ~now ~txn ~ok ~retries ~timeouts roots =
  let latency =
    match Hashtbl.find_opt t.started txn with
    | Some s -> now -. s
    | None -> 0.
  in
  Hashtbl.remove t.started txn;
  List.iter
    (fun root -> observe t ~now ~root ~txn ~ok ~retries ~timeouts ~latency)
    roots

let regate t ~now sched =
  let eligible =
    List.filter_map
      (function
        | id, Sched.Breaker roots
          when List.for_all (fun root -> gate t ~now ~root <> `Defer) roots ->
          Some id
        | _ -> None)
      (Sched.parked sched)
  in
  if eligible <> [] then Sched.wake sched eligible;
  List.length eligible

let score t ~root =
  match Hashtbl.find_opt t.entries (key root) with
  | None -> 0.
  | Some e -> combined e

let state_of t ~root =
  match Hashtbl.find_opt t.entries (key root) with
  | None -> Closed
  | Some e -> e.state
