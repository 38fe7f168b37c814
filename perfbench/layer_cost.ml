(* Wall-clock cost of each layer's public hot function, timed on a
   workload's own inputs: its committed (proc, args) history replayed
   serially through the logical layer from the initial tree, the lock
   sets and txn records that replay yields, and the trees it passes
   through. *)

type t = {
  simulate_us : float;  (* Logical.simulate, per txn *)
  check_us : float;  (* Constraints.check_path, per written path *)
  mglock_us : float;  (* Mglock.try_acquire + release_all, per txn *)
  codec_us : float;  (* Txn.to_string + of_string, per record *)
  store_apply_us : float;  (* Coord.Store.apply, per command *)
  event_us : float;  (* Des.Sim.after + step, per event *)
  final_tree : Data.Tree.t;  (* where the serial replay ends *)
}

let simulate env tree (id, proc, args) =
  match Tropic.Logical.simulate env ~tree ~proc ~args with
  | Ok s -> s
  | Error reason ->
    failwith (Printf.sprintf "serial replay of txn %d (%s): %s" id proc reason)

let replay env ~tree history =
  List.fold_left
    (fun tree h -> (simulate env tree h).Tropic.Logical.new_tree)
    tree history

(* One event scheduled and one executed, at a steady [pending] heap size. *)
let event_us ~pending =
  let sim = Des.Sim.create () in
  let rng = Random.State.make [| 1 |] in
  let delays = Array.init 4096 (fun _ -> Random.State.float rng 1.) in
  for i = 1 to max 1 pending do
    ignore (Des.Sim.after sim delays.(i mod 4096) ignore)
  done;
  Stats.per_item_us ~items:(Array.length delays) (fun () ->
      Array.iter
        (fun d ->
          ignore (Des.Sim.after sim d ignore);
          ignore (Des.Sim.step sim))
        delays)

let measure ~env ~initial_tree ~history ~pending =
  let items =
    List.fold_left
      (fun (tree, acc) ((id, proc, args) as h) ->
        let s = simulate env tree h in
        (s.Tropic.Logical.new_tree, (id, proc, args, s) :: acc))
      (initial_tree, []) history
    |> snd |> List.rev |> Array.of_list
  in
  let n = Array.length items in
  let registry = Tropic.Dsl.constraints_of env in
  let written =
    Array.to_list items
    |> List.concat_map (fun (_, _, _, s) ->
           List.filter_map
             (fun (path, mode) ->
               if mode = Mglock.W then Some (s.Tropic.Logical.new_tree, path)
               else None)
             s.Tropic.Logical.locks)
    |> Array.of_list
  in
  let table = Mglock.create () in
  let records =
    Array.map
      (fun (id, proc, args, s) ->
        let txn = Tropic.Txn.make ~id ~proc ~args ~submitted_at:0. in
        txn.Tropic.Txn.state <- Tropic.Txn.Committed;
        txn.Tropic.Txn.log <- s.Tropic.Logical.log;
        txn.Tropic.Txn.locks <- s.Tropic.Logical.locks;
        txn)
      items
  in
  let keyed =
    Array.map
      (fun txn ->
        (Tropic.Txn.record_key txn.Tropic.Txn.id, Tropic.Txn.to_string txn))
      records
  in
  let store = Coord.Store.create () in
  let req = ref 0 in
  let apply cmd =
    match fst (Coord.Store.apply store cmd) with
    | Coord.Types.Op_failed _ -> failwith "coord store refused a txn record"
    | _ -> ()
  in
  let next () =
    incr req;
    !req
  in
  let simulate_us =
    Stats.per_item_us ~items:n (fun () ->
        ignore (replay env ~tree:initial_tree history))
  in
  let check_us =
    Stats.per_item_us ~items:(Array.length written) (fun () ->
        Array.iter
          (fun (tree, path) ->
            if Tropic.Constraints.check_path registry tree path <> [] then
              failwith "a committed tree violates a constraint")
          written)
  in
  let mglock_us =
    Stats.per_item_us ~items:n (fun () ->
        Array.iter
          (fun (id, _, _, s) ->
            (match Mglock.try_acquire table ~txn:id s.Tropic.Logical.locks with
             | Ok () -> ()
             | Error _ -> failwith "lock conflict on an empty lock table");
            ignore (Mglock.release_all table ~txn:id))
          items)
  in
  let codec_us =
    Stats.per_item_us ~items:n (fun () ->
        Array.iter
          (fun txn ->
            match Tropic.Txn.of_string (Tropic.Txn.to_string txn) with
            | Ok _ -> ()
            | Error reason -> failwith ("txn codec: " ^ reason))
          records)
  in
  (* A burst of records created, rewritten and deleted, as the controller
     does with them. *)
  let store_apply_us =
    Stats.per_item_us ~items:(3 * n) (fun () ->
        Array.iter
          (fun (key, value) ->
            apply
              (Coord.Types.Create
                 { session = 1; req = next (); key; value; ephemeral = false;
                   sequential = false }))
          keyed;
        Array.iter
          (fun (key, value) ->
            apply
              (Coord.Types.Write
                 { session = 1; req = next (); key; value; expect_version = None }))
          keyed;
        Array.iter
          (fun (key, _) ->
            apply
              (Coord.Types.Delete
                 { session = 1; req = next (); key; expect_version = None }))
          keyed)
  in
  {
    simulate_us;
    check_us;
    mglock_us;
    codec_us;
    store_apply_us;
    event_us = event_us ~pending:(int_of_float pending);
    final_tree = replay env ~tree:initial_tree history;
  }
