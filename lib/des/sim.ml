type event = {
  time : float;
  seq : int;
  mutable fn : unit -> unit;
  mutable cancelled : bool;
}

type t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable executed : int;
  queue : event Heap.t;
  random : Random.State.t;
  mutable failure_log : (string * exn) list;
}

let compare_event a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create ?(seed = 42) () =
  {
    clock = 0.;
    next_seq = 0;
    executed = 0;
    queue = Heap.create ~cmp:compare_event;
    random = Random.State.make [| seed |];
    failure_log = [];
  }

let now sim = sim.clock
let rng sim = sim.random

let at sim time fn =
  if time < sim.clock then
    invalid_arg
      (Printf.sprintf "Sim.at: time %g is before now %g" time sim.clock);
  let ev = { time; seq = sim.next_seq; fn; cancelled = false } in
  sim.next_seq <- sim.next_seq + 1;
  Heap.push sim.queue ev;
  ev

let after sim delay fn = at sim (sim.clock +. Float.max 0. delay) fn
(* A cancelled event stays in the heap until its time comes; dropping its
   closure now lets whatever it captured be collected meanwhile. *)
let cancel ev =
  ev.cancelled <- true;
  ev.fn <- ignore

(* Drop cancelled events from the head of the queue so they neither fire
   nor advance the clock. *)
let rec purge sim =
  match Heap.peek sim.queue with
  | Some ev when ev.cancelled ->
    ignore (Heap.pop sim.queue);
    purge sim
  | Some _ | None -> ()

let step sim =
  purge sim;
  match Heap.pop_opt sim.queue with
  | None -> false
  | Some ev ->
    sim.clock <- ev.time;
    sim.executed <- sim.executed + 1;
    ev.fn ();
    true

let run ?until ?(stop = fun () -> false) sim =
  let start = sim.executed in
  let continue () =
    purge sim;
    match Heap.peek sim.queue, until with
    | None, _ -> false
    | Some _, None -> true
    | Some ev, Some limit -> ev.time <= limit
  in
  let stopped = ref false in
  while (not !stopped) && continue () do
    ignore (step sim);
    stopped := stop ()
  done;
  (match until with
   | Some limit when not !stopped -> sim.clock <- Float.max sim.clock limit
   | Some _ | None -> ());
  sim.executed - start

let executed sim = sim.executed
let pending sim = purge sim; Heap.length sim.queue

let record_failure sim who exn =
  sim.failure_log <- (who, exn) :: sim.failure_log

let failures sim = List.rev sim.failure_log
