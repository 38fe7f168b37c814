(* Tests for the workload generators and the metrics library. *)

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let float_c = Alcotest.float 1e-6

(* ------------------------------------------------------------------ *)
(* EC2 trace (Figure 3 statistics) *)

let test_ec2_statistics () =
  let trace = Workload.Ec2.generate () in
  let stats = Workload.Ec2.stats trace in
  check int_c "duration" 3600 (Array.length trace);
  check int_c "total launches" 8417 stats.Workload.Ec2.total;
  check (Alcotest.float 0.01) "mean 2.34/s" 2.34 stats.Workload.Ec2.mean_per_second;
  check int_c "peak rate" 14 stats.Workload.Ec2.peak;
  check int_c "peak at 0.8h" 2880 stats.Workload.Ec2.peak_at_second;
  Array.iter (fun c -> if c < 0 then Alcotest.fail "negative count") trace

let test_ec2_deterministic () =
  let a = Workload.Ec2.generate () and b = Workload.Ec2.generate () in
  check bool_c "same seed same trace" true (a = b);
  let c = Workload.Ec2.generate ~seed:99 () in
  check bool_c "different seed differs" true (a <> c);
  (* Normalization holds for any seed. *)
  check int_c "total still exact" 8417 (Workload.Ec2.stats c).Workload.Ec2.total

let test_ec2_burst_shape () =
  let trace = Workload.Ec2.generate () in
  let window lo hi =
    let sum = ref 0 in
    for t = lo to hi - 1 do
      sum := !sum + trace.(t)
    done;
    float_of_int !sum /. float_of_int (hi - lo)
  in
  let baseline = window 0 2000 in
  let burst = window 2760 3000 in
  check bool_c "burst well above baseline" true (burst > baseline *. 3.)

let test_ec2_scale () =
  let trace = Workload.Ec2.generate () in
  let x3 = Workload.Ec2.scale trace 3 in
  check int_c "3x total" (3 * 8417) (Workload.Ec2.stats x3).Workload.Ec2.total;
  check int_c "3x peak" 42 (Workload.Ec2.stats x3).Workload.Ec2.peak

(* ------------------------------------------------------------------ *)
(* Hosting workload *)

let hosting_config =
  {
    Workload.Hosting.default_config with
    Workload.Hosting.rate_per_second = 2.0;
    duration_seconds = 500.;
  }

let ec2_normalized_prop =
  QCheck.Test.make ~name:"ec2 trace normalized for any seed" ~count:25
    QCheck.(int_bound 100000)
    (fun seed ->
      let stats = Workload.Ec2.stats (Workload.Ec2.generate ~seed ()) in
      stats.Workload.Ec2.total = Workload.Ec2.total_launches
      && stats.Workload.Ec2.peak = Workload.Ec2.peak_rate
      && stats.Workload.Ec2.peak_at_second = Workload.Ec2.peak_second)

let test_hosting_mix () =
  let ops = Workload.Hosting.generate hosting_config in
  let mix = Workload.Hosting.mix_of ops in
  check bool_c "has spawns" true (mix.Workload.Hosting.n_spawn > 0);
  check bool_c "has starts" true (mix.Workload.Hosting.n_start > 0);
  check bool_c "has stops" true (mix.Workload.Hosting.n_stop > 0);
  check bool_c "has migrations" true (mix.Workload.Hosting.n_migrate > 0);
  check bool_c "has destroys" true (mix.Workload.Hosting.n_destroy > 0);
  (* Spawns dominate with the default weights. *)
  check bool_c "spawn heaviest" true
    (mix.Workload.Hosting.n_spawn >= mix.Workload.Hosting.n_migrate)

let test_hosting_times_increase () =
  let ops = Workload.Hosting.generate hosting_config in
  let rec increasing = function
    | (t1, _) :: ((t2, _) :: _ as rest) -> t1 <= t2 && increasing rest
    | [ _ ] | [] -> true
  in
  check bool_c "timestamps sorted" true (increasing ops);
  List.iter
    (fun (t, _) ->
      if t < 0. || t > 500. then Alcotest.fail "timestamp out of range")
    ops

let test_hosting_migrations_compatible () =
  let ops = Workload.Hosting.generate hosting_config in
  List.iter
    (fun (_, op) ->
      match op with
      | Workload.Hosting.Migrate { src; dst; _ } ->
        check int_c "same hypervisor group"
          (src mod hosting_config.Workload.Hosting.hypervisor_groups)
          (dst mod hosting_config.Workload.Hosting.hypervisor_groups)
      | _ -> ())
    ops

let test_hosting_submission () =
  let host_path i = Printf.sprintf "/vmRoot/host%05d" i in
  let storage_path i = Printf.sprintf "/storageRoot/storage%05d" i in
  let proc, args =
    Workload.Hosting.to_submission ~host_path ~storage_path
      (Workload.Hosting.Spawn { vm = "v"; host = 3; storage = 1; mem_mb = 512 })
  in
  check Alcotest.string "proc" "spawnVM" proc;
  check int_c "arity" 5 (List.length args);
  let proc2, args2 =
    Workload.Hosting.to_submission ~host_path ~storage_path
      (Workload.Hosting.Migrate { vm = "v"; src = 0; dst = 2 })
  in
  check Alcotest.string "proc2" "migrateVM" proc2;
  check int_c "arity2" 3 (List.length args2)

(* ------------------------------------------------------------------ *)
(* Metrics: series, CDF, gauges *)

let test_series_accumulation () =
  let s = Metrics.Series.create ~bucket:10. ~duration:60. in
  check int_c "buckets" 6 (Metrics.Series.bucket_count s);
  Metrics.Series.add s 5.;
  Metrics.Series.add s 7.;
  Metrics.Series.add ~v:3. s 15.;
  Metrics.Series.add s 1000. (* clamped to last bucket *);
  (match Metrics.Series.rows s with
   | (0., a) :: (10., b) :: _ ->
     check float_c "first bucket" 2. a;
     check float_c "second bucket" 3. b
   | _ -> Alcotest.fail "rows shape");
  check float_c "sum" 6. (Metrics.Series.sum s);
  check float_c "max" 3. (Metrics.Series.max_value s)

let test_series_render () =
  let s = Metrics.Series.create ~bucket:1. ~duration:2. in
  Metrics.Series.add s 0.;
  let text = Metrics.Series.render ~label:"x" s in
  check bool_c "mentions label" true
    (String.length text > 0 && String.split_on_char '\n' text <> [])

let test_cdf_quantiles () =
  let c = Metrics.Cdf.create () in
  List.iter (Metrics.Cdf.add c) (List.init 100 (fun i -> float_of_int (i + 1)));
  check int_c "count" 100 (Metrics.Cdf.count c);
  check float_c "median" 50. (Metrics.Cdf.quantile c 0.5);
  check float_c "p99" 99. (Metrics.Cdf.quantile c 0.99);
  check float_c "min" 1. (Metrics.Cdf.min_value c);
  check float_c "max" 100. (Metrics.Cdf.max_value c);
  check (Alcotest.float 0.001) "mean" 50.5 (Metrics.Cdf.mean c)

let test_cdf_points_monotone () =
  let c = Metrics.Cdf.create () in
  let rng = Random.State.make [| 4 |] in
  for _ = 1 to 1000 do
    Metrics.Cdf.add c (Random.State.float rng 10.)
  done;
  let pts = Metrics.Cdf.points c in
  let rec monotone = function
    | (v1, f1) :: ((v2, f2) :: _ as rest) ->
      v1 <= v2 && f1 <= f2 && monotone rest
    | [ _ ] | [] -> true
  in
  check bool_c "monotone CDF" true (monotone pts);
  (match List.rev pts with
   | (_, last_fraction) :: _ -> check float_c "ends at 1" 1. last_fraction
   | [] -> Alcotest.fail "no points")

let test_cdf_errors () =
  let c = Metrics.Cdf.create () in
  (* Out-of-range q raises even on an empty recorder. *)
  (match Metrics.Cdf.quantile c 1.5 with
   | _ -> Alcotest.fail "expected Invalid_argument"
   | exception Invalid_argument _ -> ());
  Metrics.Cdf.add c 1.;
  match Metrics.Cdf.quantile c 1.5 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* An empty recorder answers placeholder zeros instead of raising, so a
   summary survives a run where load shedding leaves zero commits. *)
let test_cdf_empty_placeholder () =
  let c = Metrics.Cdf.create () in
  check float_c "median" 0. (Metrics.Cdf.quantile c 0.5);
  check float_c "p99" 0. (Metrics.Cdf.quantile c 0.99);
  check float_c "min" 0. (Metrics.Cdf.min_value c);
  check float_c "max" 0. (Metrics.Cdf.max_value c);
  check bool_c "render does not raise" true
    (String.length (Metrics.Cdf.render ~label:"empty" c) > 0)

let test_gauge_utilization () =
  let sim = Des.Sim.create () in
  let st = Des.Station.create sim in
  (* Jobs keep the station 50% busy: 1 s of work every 2 s. *)
  ignore
    (Des.Proc.spawn sim (fun () ->
         for _ = 1 to 10 do
           Des.Station.request st ~service:1.0;
           Des.Proc.sleep 1.0
         done));
  let series =
    Metrics.Gauge.utilization_series sim ~bucket:4. ~duration:20.
      ~busy:(fun () -> Des.Station.busy_time st)
  in
  ignore (Des.Sim.run sim);
  List.iter
    (fun (_, u) ->
      if u < 0.4 || u > 0.6 then
        Alcotest.failf "utilization %.2f outside [0.4, 0.6]" u)
    (Metrics.Series.rows series)

let test_gauge_rate () =
  let sim = Des.Sim.create () in
  let counter = ref 0. in
  ignore
    (Des.Proc.spawn sim (fun () ->
         for _ = 1 to 100 do
           Des.Proc.sleep 0.1;
           counter := !counter +. 1.
         done));
  let series =
    Metrics.Gauge.rate_series sim ~bucket:2. ~duration:10.
      ~count:(fun () -> !counter)
  in
  ignore (Des.Sim.run sim);
  List.iter
    (fun (_, r) ->
      if r < 9. || r > 11. then Alcotest.failf "rate %.2f outside [9, 11]" r)
    (Metrics.Series.rows series)

(* The list-based recorder [Metrics.Cdf] used to be, kept as the model its
   array-backed one must match bit for bit. *)
module Cdf_model = struct
  type t = {
    mutable samples : float list;
    mutable n : int;
    mutable sorted : float array option;
  }

  let create () = { samples = []; n = 0; sorted = None }

  let add t v =
    t.samples <- v :: t.samples;
    t.n <- t.n + 1;
    t.sorted <- None

  let sorted t =
    match t.sorted with
    | Some a -> a
    | None ->
      let a = Array.of_list t.samples in
      Array.sort Float.compare a;
      t.sorted <- Some a;
      a

  let mean t =
    if t.n = 0 then 0.
    else List.fold_left ( +. ) 0. t.samples /. float_of_int t.n

  let quantile t q =
    if q < 0. || q > 1. then invalid_arg "Cdf.quantile: q out of range";
    if t.n = 0 then 0.
    else (sorted t).(int_of_float (q *. float_of_int (t.n - 1)))

  let quantile_opt t q = if t.n = 0 then None else Some (quantile t q)
  let min_value t = quantile t 0.
  let max_value t = quantile t 1.

  let points ?(points = 100) t =
    let a = sorted t in
    let n = Array.length a in
    if n = 0 then []
    else begin
      let step = max 1 (n / points) in
      let out = ref [] in
      let i = ref 0 in
      while !i < n do
        out := (a.(!i), float_of_int (!i + 1) /. float_of_int n) :: !out;
        i := !i + step
      done;
      let out =
        match !out with
        | (v, _) :: _ when v = a.(n - 1) -> !out
        | _ -> (a.(n - 1), 1.) :: !out
      in
      List.rev out
    end

  let render ?(label = "latency (s)") t =
    if t.n = 0 then Printf.sprintf "%s: no samples\n" label
    else begin
      let buf = Buffer.create 512 in
      Buffer.add_string buf
        (Printf.sprintf "%s: n=%d mean=%.4f min=%.4f max=%.4f\n" label t.n
           (mean t) (min_value t) (max_value t));
      List.iter
        (fun q ->
          Buffer.add_string buf
            (Printf.sprintf "  p%-5g %10.4f\n" (q *. 100.) (quantile t q)))
        [ 0.10; 0.25; 0.50; 0.75; 0.90; 0.95; 0.99; 1.0 ];
      Buffer.contents buf
    end
end

(* Samples mix arbitrary floats with a few repeated values (signed zeros
   among them), so ranks tie and sums round. *)
let cdf_matches_model_prop =
  let sample =
    QCheck.Gen.(
      frequency
        [ (3, float); (2, float_range (-1e3) 1e3);
          (1, oneofl [ 0.; -0.; 1.; 0.1; 2.5 ]) ])
  in
  let gen =
    QCheck.Gen.(
      pair (list_size (int_bound 5_000) sample)
        (list_size (int_range 1 8) (float_bound_inclusive 1.)))
  in
  let print (xs, qs) =
    Printf.sprintf "%d samples, q = %s" (List.length xs)
      (String.concat " " (List.map string_of_float qs))
  in
  QCheck.Test.make ~name:"cdf: array recorder matches the list model"
    ~count:200 (QCheck.make ~print gen)
    (fun (xs, qs) ->
      let c = Metrics.Cdf.create () and m = Cdf_model.create () in
      List.iter (fun x -> Metrics.Cdf.add c x; Cdf_model.add m x) xs;
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      let same_opt a b =
        match (a, b) with
        | Some a, Some b -> same a b
        | None, None -> true
        | _ -> false
      in
      let same_points a b =
        List.length a = List.length b
        && List.for_all2 (fun (v, f) (v', f') -> same v v' && same f f') a b
      in
      Metrics.Cdf.count c = m.Cdf_model.n
      && List.for_all
           (fun q ->
             same (Metrics.Cdf.quantile c q) (Cdf_model.quantile m q)
             && same_opt (Metrics.Cdf.quantile_opt c q) (Cdf_model.quantile_opt m q))
           (0. :: 1. :: qs)
      && same (Metrics.Cdf.mean c) (Cdf_model.mean m)
      && same (Metrics.Cdf.min_value c) (Cdf_model.min_value m)
      && same (Metrics.Cdf.max_value c) (Cdf_model.max_value m)
      && same_points (Metrics.Cdf.points c) (Cdf_model.points m)
      && same_points (Metrics.Cdf.points ~points:7 c) (Cdf_model.points ~points:7 m)
      && String.equal (Metrics.Cdf.render c) (Cdf_model.render m))

let suite =
  [
    ("ec2: Figure 3 statistics", `Quick, test_ec2_statistics);
    ("ec2: deterministic", `Quick, test_ec2_deterministic);
    ("ec2: burst shape", `Quick, test_ec2_burst_shape);
    ("ec2: scaling", `Quick, test_ec2_scale);
    QCheck_alcotest.to_alcotest ec2_normalized_prop;
    ("hosting: operation mix", `Quick, test_hosting_mix);
    ("hosting: timestamps", `Quick, test_hosting_times_increase);
    ("hosting: migrations compatible", `Quick, test_hosting_migrations_compatible);
    ("hosting: submissions", `Quick, test_hosting_submission);
    ("series: accumulation", `Quick, test_series_accumulation);
    ("series: render", `Quick, test_series_render);
    ("cdf: quantiles", `Quick, test_cdf_quantiles);
    ("cdf: monotone points", `Quick, test_cdf_points_monotone);
    ("cdf: errors", `Quick, test_cdf_errors);
    ("cdf: empty recorder placeholders", `Quick, test_cdf_empty_placeholder);
    ("gauge: utilization", `Quick, test_gauge_utilization);
    ("gauge: rate", `Quick, test_gauge_rate);
    QCheck_alcotest.to_alcotest cdf_matches_model_prop;
  ]

let () = Alcotest.run "workload" [ ("workload", suite) ]
