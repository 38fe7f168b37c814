let uniform st ~lo ~hi = lo +. Random.State.float st (hi -. lo)

let exponential st ~mean =
  let u = 1. -. Random.State.float st 1. in
  -.mean *. log u

let flip st ~p =
  if p <= 0. then false
  else if p >= 1. then true
  else Random.State.float st 1. < p

let int st n =
  if n <= 0 then invalid_arg "Dist.int: bound must be positive";
  Random.State.int st n

let choice st xs =
  match xs with
  | [] -> invalid_arg "Dist.choice: empty list"
  | _ -> List.nth xs (int st (List.length xs))

let weighted_index st weights =
  let total =
    Array.fold_left
      (fun acc w ->
        if w < 0. then invalid_arg "Dist.weighted_index: negative weight";
        acc +. w)
      0. weights
  in
  if total <= 0. then invalid_arg "Dist.weighted_index: zero total weight";
  let target = Random.State.float st total in
  let n = Array.length weights in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.
