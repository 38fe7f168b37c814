(* Wall clock and order statistics for the benchmark.  Quantiles use
   [Metrics.Cdf], the rank rule of every other report in the repository. *)

let wall = Unix.gettimeofday

let quantile xs q =
  let cdf = Metrics.Cdf.create () in
  List.iter (Metrics.Cdf.add cdf) xs;
  Metrics.Cdf.quantile cdf q

(* Per-item cost of [pass], in microseconds, over one batch that repeats
   [pass] (which handles [items] items) for at least [batch_s] seconds. *)
let batch_us ?(batch_s = 0.05) ~items pass =
  let t0 = wall () in
  let passes = ref 0 in
  while !passes = 0 || wall () -. t0 < batch_s do
    pass ();
    incr passes
  done;
  1e6 *. (wall () -. t0) /. float_of_int (!passes * max 1 items)

(* The median over five such batches. *)
let per_item_us ~items pass =
  quantile (List.init 5 (fun _ -> batch_us ~items pass)) 0.5
