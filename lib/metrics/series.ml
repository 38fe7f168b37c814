type t = { bucket : float; values : float array }

let create ~bucket ~duration =
  if bucket <= 0. then invalid_arg "Series.create: bucket must be positive";
  let n = max 1 (int_of_float (ceil (duration /. bucket))) in
  { bucket; values = Array.make n 0. }

let index t time =
  let i = int_of_float (time /. t.bucket) in
  min (Array.length t.values - 1) (max 0 i)

let add ?(v = 1.0) t time =
  let i = index t time in
  t.values.(i) <- t.values.(i) +. v

let set_bucket t i v =
  if i >= 0 && i < Array.length t.values then t.values.(i) <- v

let bucket_count t = Array.length t.values
let rows t =
  Array.to_list
    (Array.mapi (fun i v -> (float_of_int i *. t.bucket, v)) t.values)

let max_value t = Array.fold_left Float.max neg_infinity t.values
let sum t = Array.fold_left ( +. ) 0. t.values

let render ?(label = "value") ?(time_unit = `Seconds) t =
  let buf = Buffer.create 1024 in
  let peak = Float.max 1e-9 (max_value t) in
  let time_header, time_of =
    match time_unit with
    | `Seconds -> ("t(s)", fun time -> Printf.sprintf "%8.0f" time)
    | `Hours -> ("t(h)", fun time -> Printf.sprintf "%8.3f" (time /. 3600.))
  in
  Buffer.add_string buf (Printf.sprintf "%8s  %12s\n" time_header label);
  List.iter
    (fun (time, v) ->
      let bar_len = int_of_float (v /. peak *. 40.) in
      Buffer.add_string buf
        (Printf.sprintf "%s  %12.3f  %s\n" (time_of time) v
           (String.make (max 0 bar_len) '#')))
    (rows t);
  Buffer.contents buf
