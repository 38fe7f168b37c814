type severity = Transient | Permanent

let severity_to_string = function
  | Transient -> "transient"
  | Permanent -> "permanent"

type verdict = Pass | Fail of severity * string | Hang

type plan =
  | Fail_next of int * severity
  | Fail_always of severity
  | Hang_next of int

module Smap = Data.Tree.Smap

(* Plans by action in a persistent map held in a mutable field: a device
   with no plan holds an empty value, not a bucket array. *)
type t = {
  mutable plans : plan Smap.t;
  mutable probability : float;
  mutable injected_count : int;
  mutable hang_count : int;
}

let create () =
  { plans = Smap.empty; probability = 0.; injected_count = 0; hang_count = 0 }

let set t action plan = t.plans <- Smap.add action plan t.plans

let fail_next ?(count = 1) ?(severity = Permanent) t ~action =
  if count > 0 then set t action (Fail_next (count, severity))

let fail_always ?(severity = Permanent) t ~action =
  set t action (Fail_always severity)

let hang_next ?(count = 1) t ~action =
  if count > 0 then set t action (Hang_next count)

let clear t ~action = t.plans <- Smap.remove action t.plans

(* Clamped to [0,1]; NaN has no sensible clamp and is rejected. *)
let set_probability t p =
  if Float.is_nan p then Error "fault probability is NaN"
  else begin
    t.probability <- Float.min 1. (Float.max 0. p);
    Ok ()
  end

let probability t = t.probability

let check t ~rng ~action =
  let planned =
    match Smap.find_opt action t.plans with
    | Some (Fail_next (1, severity)) ->
      clear t ~action;
      Some (`Fail severity)
    | Some (Fail_next (n, severity)) ->
      set t action (Fail_next (n - 1, severity));
      Some (`Fail severity)
    | Some (Fail_always severity) -> Some (`Fail severity)
    | Some (Hang_next 1) ->
      clear t ~action;
      Some `Hang
    | Some (Hang_next n) ->
      set t action (Hang_next (n - 1));
      Some `Hang
    | None -> None
  in
  match planned with
  | Some `Hang ->
    t.injected_count <- t.injected_count + 1;
    t.hang_count <- t.hang_count + 1;
    Hang
  | Some (`Fail severity) ->
    t.injected_count <- t.injected_count + 1;
    Fail
      ( severity,
        Printf.sprintf "injected %s fault in %s"
          (severity_to_string severity) action )
  | None ->
    (* Background random failures model environmental blips: transient. *)
    if t.probability > 0. && Des.Dist.flip rng ~p:t.probability then begin
      t.injected_count <- t.injected_count + 1;
      Fail (Transient, Printf.sprintf "injected transient fault in %s" action)
    end
    else Pass

let injected t = t.injected_count
let hangs t = t.hang_count
