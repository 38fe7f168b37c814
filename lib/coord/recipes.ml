let poll_interval = 1.0
(* Watches are only hints; every blocking loop re-checks at least this often. *)

(* ------------------------------------------------------------------ *)
(* Queue *)

let item_prefix queue = queue ^ "/item-"

let enqueue client ~queue value =
  match Client.create client ~sequential:true ~key:(item_prefix queue) ~value () with
  | Ok key -> key
  | Error e ->
    failwith
      (Printf.sprintf "Recipes.enqueue: %s"
         (Format.asprintf "%a" Types.pp_op_error e))

let enqueue_op ~queue value =
  Types.Op_create
    { key = item_prefix queue; value; ephemeral = false; sequential = true }

let peek client ~queue =
  match Client.children_values client queue 1 with
  | item :: _ -> Some item
  | [] -> None

let queue_length client ~queue = Client.count_children client queue

let dequeue client ~queue ?timeout () =
  let deadline =
    Option.map (fun d -> Des.Proc.now () +. d) timeout
  in
  let remaining () =
    match deadline with
    | None -> poll_interval
    | Some d -> Float.min poll_interval (d -. Des.Proc.now ())
  in
  let expired () =
    match deadline with None -> false | Some d -> Des.Proc.now () >= d
  in
  let rec loop () =
    match Client.children_values client queue 1 with
    | (key, value) :: _ ->
      (match Client.delete client ~key () with
       | Ok () -> Some (key, value)
       | Error Types.Key_missing -> loop () (* lost the take race *)
       | Error e ->
         failwith
           (Printf.sprintf "Recipes.dequeue: %s"
              (Format.asprintf "%a" Types.pp_op_error e)))
    | [] ->
      if expired () then None
      else begin
        Client.watch_children client queue;
        (* Re-check: an item may have arrived before the watch was set. *)
        if peek client ~queue <> None then loop ()
        else begin
          let wait = remaining () in
          if wait > 0. then ignore (Client.await_change client ~timeout:wait);
          if expired () then None else loop ()
        end
      end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Leader election *)

let join_election client ~election ~payload =
  match
    Client.create client ~ephemeral:true ~sequential:true
      ~key:(election ^ "/m-") ~value:payload ()
  with
  | Ok key -> key
  | Error e ->
    failwith
      (Printf.sprintf "Recipes.join_election: %s"
         (Format.asprintf "%a" Types.pp_op_error e))

let members client ~election = Client.get_children client election

let is_leader client ~election ~member =
  match members client ~election with
  | [] -> false
  | head :: _ -> String.equal head member

let await_leadership client ~election ~member =
  let rec loop () =
    match members client ~election with
    | [] -> failwith "Recipes.await_leadership: member vanished"
    | head :: _ when String.equal head member -> ()
    | group ->
      (* Watch the member just ahead of us (the classic herd-avoiding
         pattern), then re-check. *)
      let predecessor =
        let rec find_prev = function
          | a :: b :: _ when String.equal b member -> a
          | _ :: rest -> find_prev rest
          | [] -> List.hd group
        in
        find_prev group
      in
      Client.watch_key client predecessor;
      ignore (Client.await_change client ~timeout:poll_interval);
      loop ()
  in
  loop ()

let leader_payload client ~election =
  match members client ~election with
  | [] -> None
  | head :: _ ->
    (match Client.get client head with
     | Some (payload, _) -> Some payload
     | None -> None)
