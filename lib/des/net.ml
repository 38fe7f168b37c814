module Pair_set = Set.Make (struct
  type t = int * int

  let compare = compare
end)

type 'm t = {
  net_sim : Sim.t;
  nodes : int;
  latency : src:int -> dst:int -> rng:Random.State.t -> float;
  drop_rate : float;
  up : bool array;
  inboxes : (int * 'm) Channel.t array;
  mutable cuts : Pair_set.t;
  extra_delay : float array;
  mutable n_delivered : int;
  mutable n_dropped : int;
}

let default_latency ~src:_ ~dst:_ ~rng = Dist.uniform rng ~lo:0.0005 ~hi:0.0015

let create ?(latency = default_latency) ?(drop_rate = 0.) sim ~nodes =
  {
    net_sim = sim;
    nodes;
    latency;
    drop_rate;
    up = Array.make nodes true;
    inboxes =
      Array.init nodes (fun _ -> Channel.create ());
    cuts = Pair_set.empty;
    extra_delay = Array.make nodes 0.;
    n_delivered = 0;
    n_dropped = 0;
  }

let sim net = net.net_sim
let node_count net = net.nodes
let inbox net i = net.inboxes.(i)
let ordered a b = if a <= b then (a, b) else (b, a)
let cut net a b = Pair_set.mem (ordered a b) net.cuts

let send net ~src ~dst msg =
  let deliverable =
    net.up.(src) && net.up.(dst)
    && (not (cut net src dst))
    && not (Dist.flip (Sim.rng net.net_sim) ~p:net.drop_rate)
  in
  if not deliverable then net.n_dropped <- net.n_dropped + 1
  else begin
    let delay =
      net.latency ~src ~dst ~rng:(Sim.rng net.net_sim)
      +. net.extra_delay.(src)
    in
    ignore
      (Sim.after net.net_sim delay (fun () ->
           if net.up.(dst) then begin
             net.n_delivered <- net.n_delivered + 1;
             Channel.send net.inboxes.(dst) (src, msg)
           end
           else net.n_dropped <- net.n_dropped + 1))
  end

let broadcast net ~src msg =
  for dst = 0 to net.nodes - 1 do
    if dst <> src then send net ~src ~dst msg
  done

let crash net i =
  net.up.(i) <- false;
  (* A rebooted node loses its volatile inbox. *)
  let rec drain () =
    match Channel.try_recv net.inboxes.(i) with
    | Some _ -> drain ()
    | None -> ()
  in
  drain ()

let restart net i = net.up.(i) <- true

let partition net group_a group_b =
  List.iter
    (fun a ->
      List.iter
        (fun b -> if a <> b then net.cuts <- Pair_set.add (ordered a b) net.cuts)
        group_b)
    group_a

let heal net = net.cuts <- Pair_set.empty
let set_node_delay net i extra =
  net.extra_delay.(i) <- (if extra > 0. then extra else 0.)

let delivered net = net.n_delivered
let dropped net = net.n_dropped
