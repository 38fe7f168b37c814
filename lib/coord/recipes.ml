let poll_interval = 1.0
(* Watches are only hints; [await_leadership] re-checks at least this often. *)

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

let await_leadership client ~election ~member =
  let rec loop () =
    match Client.get_children client election with
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
