module Pair_set = Set.Make (struct
  type t = int * int

  let compare = compare
end)

type 'm port =
  { mutable up : bool; mutable extra_delay : float; inbox : (int * 'm) Channel.t }

type 'm t = {
  net_sim : Sim.t;
  mutable nodes : int;
  mutable ports : 'm port array; (* [nodes] live, grown by doubling *)
  latency : src:int -> dst:int -> rng:Random.State.t -> float;
  drop_rate : float;
  mutable cuts : Pair_set.t;
  mutable n_delivered : int;
  mutable n_dropped : int;
}

let default_latency ~src:_ ~dst:_ ~rng = Dist.uniform rng ~lo:0.0005 ~hi:0.0015
let fresh_port _ = { up = true; extra_delay = 0.; inbox = Channel.create () }

let create ?(latency = default_latency) ?(drop_rate = 0.) sim ~nodes =
  {
    net_sim = sim;
    nodes;
    ports = Array.init nodes fresh_port;
    latency;
    drop_rate;
    cuts = Pair_set.empty;
    n_delivered = 0;
    n_dropped = 0;
  }

let sim net = net.net_sim
let node_count net = net.nodes

let add_node net =
  let id = net.nodes in
  if id = Array.length net.ports then
    net.ports <-
      Array.init (max 1 (2 * id)) (fun i -> if i < id then net.ports.(i) else fresh_port i);
  net.nodes <- id + 1;
  id

(* Slots past [nodes] are spare capacity, not nodes. *)
let port net i =
  if i < net.nodes then net.ports.(i) else invalid_arg "Des.Net: no such node"
let inbox net i = (port net i).inbox
let ordered a b = if a <= b then (a, b) else (b, a)

let send net ~src ~dst msg =
  let from = port net src and into = port net dst in
  let deliverable =
    from.up && into.up
    && (not (Pair_set.mem (ordered src dst) net.cuts))
    && not (Dist.flip (Sim.rng net.net_sim) ~p:net.drop_rate)
  in
  if not deliverable then net.n_dropped <- net.n_dropped + 1
  else begin
    let delay = net.latency ~src ~dst ~rng:(Sim.rng net.net_sim) +. from.extra_delay in
    ignore
      (Sim.after net.net_sim delay (fun () ->
           if into.up then begin
             net.n_delivered <- net.n_delivered + 1;
             Channel.send into.inbox (src, msg)
           end
           else net.n_dropped <- net.n_dropped + 1))
  end

let crash net i =
  let p = port net i in
  p.up <- false;
  (* A rebooted node loses its volatile inbox. *)
  while Option.is_some (Channel.try_recv p.inbox) do () done

let restart net i = (port net i).up <- true

let partition net group_a group_b =
  List.iter
    (fun a ->
      List.iter
        (fun b -> if a <> b then net.cuts <- Pair_set.add (ordered a b) net.cuts)
        group_b)
    group_a

let heal net = net.cuts <- Pair_set.empty
let set_node_delay net i extra =
  (port net i).extra_delay <- (if extra > 0. then extra else 0.)

let delivered net = net.n_delivered
let dropped net = net.n_dropped
