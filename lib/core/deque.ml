(* Classic two-list deque: [front] in order, [back] reversed. *)
type 'a t = { mutable front : 'a list; mutable back : 'a list }

let create () = { front = []; back = [] }
let length d = List.length d.front + List.length d.back
let push_front d x = d.front <- x :: d.front
let push_back d x = d.back <- x :: d.back

let pop_front d =
  match d.front with
  | x :: rest ->
    d.front <- rest;
    Some x
  | [] ->
    (match List.rev d.back with
     | [] -> None
     | x :: rest ->
       d.back <- [];
       d.front <- rest;
       Some x)

let to_list d = d.front @ List.rev d.back

let remove d keep_out =
  let before = length d in
  d.front <- List.filter (fun x -> not (keep_out x)) d.front;
  d.back <- List.filter (fun x -> not (keep_out x)) d.back;
  before - length d
