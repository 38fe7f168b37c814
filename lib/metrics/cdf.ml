(* Samples sit unboxed in a growable array, oldest first: 8 bytes each,
   where a list of boxed floats costs 40.  [sorted] is current when it
   holds all [n] samples. *)
type t = {
  mutable samples : float array;
  mutable n : int;
  mutable sorted : float array;
}

let create () = { samples = [||]; n = 0; sorted = [||] }

let add t v =
  if t.n = Array.length t.samples then begin
    let grown = Array.make (max 16 (2 * t.n)) 0. in
    Array.blit t.samples 0 grown 0 t.n;
    t.samples <- grown
  end;
  t.samples.(t.n) <- v;
  t.n <- t.n + 1

let count t = t.n

(* Sorted from a newest-first copy: [Array.sort] is not stable, so the
   copy's order decides where equal keys ([0.] and [-0.]) land, and the
   list model in the tests pins it. *)
let ensure_sorted t =
  if Array.length t.sorted <> t.n then begin
    let a = Array.init t.n (fun i -> t.samples.(t.n - 1 - i)) in
    Array.sort Float.compare a;
    t.sorted <- a
  end;
  t.sorted

(* Summed newest first: the order fixes the rounding. *)
let mean t =
  if t.n = 0 then 0.
  else begin
    let sum = ref 0. in
    for i = t.n - 1 downto 0 do
      sum := !sum +. t.samples.(i)
    done;
    !sum /. float_of_int t.n
  end

let quantile t q =
  if q < 0. || q > 1. then invalid_arg "Cdf.quantile: q out of range";
  if t.n = 0 then 0.
  else begin
    let a = ensure_sorted t in
    let idx = int_of_float (q *. float_of_int (t.n - 1)) in
    a.(idx)
  end

let quantile_opt t q =
  if q < 0. || q > 1. then invalid_arg "Cdf.quantile_opt: q out of range";
  if t.n = 0 then None else Some (quantile t q)

let quantile_pair t ~p =
  match (quantile_opt t 0.5, quantile_opt t p) with
  | Some median, Some high -> Printf.sprintf "%.2f/%.2f" median high
  | _ -> "n/a"

let min_value t = quantile t 0.
let max_value t = quantile t 1.

let points ?(points = 100) t =
  let a = ensure_sorted t in
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
    (* Always include the max. *)
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
