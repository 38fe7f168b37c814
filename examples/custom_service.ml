(* Building a new cloud service on TROPIC (the paper's §7 claim: "not
   simply a cloud service, but a general-purpose programming platform").

   This example defines a floating-IP service from scratch — a new entity
   kind, four actions with undo pairings, two integrity constraints and
   two stored procedures — without touching the core engine, and runs it
   transactionally next to TCloud in logical-only mode (a real deployment
   would add a device driver implementing the same four actions against a
   router API).

   Run with:  dune exec examples/custom_service.exe *)

let printf = Printf.printf

module Tree = Data.Tree
module Value = Data.Value

let ( let* ) r f = Result.bind r f

(* --- the data model of the new service --- *)

let pool_kind = "ipPool"
let ip_kind = "floatingIp"
let attr_capacity = "capacity"
let attr_bound_to = "bound_to"
let pool_path = Data.Path.v "/ipRoot/pool0"

(* --- actions: logical state transitions with undo pairings --- *)

let str_arg args i =
  match List.nth_opt args i with
  | Some (Value.Str s) -> Ok s
  | Some _ | None -> Error (Printf.sprintf "argument %d: expected string" i)

let ip_path path addr = Data.Path.child path addr

let allocate_ip tree path args =
  let* addr = str_arg args 0 in
  if Tree.mem tree (ip_path path addr) then
    Error (Printf.sprintf "address %s already allocated" addr)
  else
    Result.map_error Tree.error_to_string
      (Tree.insert tree (ip_path path addr) ~kind:ip_kind
         ~attrs:[ (attr_bound_to, Value.Null) ]
         ())

let release_ip tree path args =
  let* addr = str_arg args 0 in
  match Tree.get_attr tree (ip_path path addr) attr_bound_to with
  | None -> Error (Printf.sprintf "address %s not allocated" addr)
  | Some (Value.Str vm) -> Error (Printf.sprintf "%s still bound to %s" addr vm)
  | Some _ ->
    Result.map_error Tree.error_to_string (Tree.remove tree (ip_path path addr))

let bind_ip tree path args =
  let* addr = str_arg args 0 in
  let* vm = str_arg args 1 in
  match Tree.get_attr tree (ip_path path addr) attr_bound_to with
  | None -> Error (Printf.sprintf "address %s not allocated" addr)
  | Some (Value.Str owner) ->
    Error (Printf.sprintf "%s already bound to %s" addr owner)
  | Some _ ->
    Result.map_error Tree.error_to_string
      (Tree.set_attr tree (ip_path path addr) attr_bound_to (Value.Str vm))

let unbind_ip tree path args =
  let* addr = str_arg args 0 in
  match Tree.get_attr tree (ip_path path addr) attr_bound_to with
  | None -> Error (Printf.sprintf "address %s not allocated" addr)
  | Some Value.Null -> Error (Printf.sprintf "%s is not bound" addr)
  | Some _ ->
    Result.map_error Tree.error_to_string
      (Tree.set_attr tree (ip_path path addr) attr_bound_to Value.Null)

(* --- constraints: pool capacity; one address per VM --- *)

let pool_capacity =
  {
    Tropic.Constraints.name = "ip-pool-capacity";
    kind = pool_kind;
    check =
      (fun _tree _path node ->
        let used = Tree.Smap.cardinal node.Tree.children in
        match Tree.attr node attr_capacity with
        | Some (Value.Int capacity) when used <= capacity -> Ok ()
        | Some (Value.Int capacity) ->
          Error (Printf.sprintf "%d addresses exceed capacity %d" used capacity)
        | Some _ | None -> Error "pool has no capacity attribute");
  }

let one_ip_per_vm =
  {
    Tropic.Constraints.name = "one-floating-ip-per-vm";
    kind = pool_kind;
    check =
      (fun _tree _path node ->
        let owners = Hashtbl.create 8 in
        Tree.Smap.fold
          (fun addr (ip : Tree.node) acc ->
            match acc with
            | Error _ -> acc
            | Ok () ->
              (match Tree.attr ip attr_bound_to with
               | Some (Value.Str vm) ->
                 if Hashtbl.mem owners vm then
                   Error
                     (Printf.sprintf "VM %s holds %s and %s" vm
                        (Hashtbl.find owners vm) addr)
                 else begin
                   Hashtbl.add owners vm addr;
                   Ok ()
                 end
               | Some _ | None -> Ok ()))
          node.Tree.children (Ok ()));
  }

(* --- stored procedures --- *)

let assign_floating_ip ctx args =
  let pool =
    match str_arg args 0 with
    | Ok p -> Data.Path.v p
    | Error e -> Tropic.Dsl.abort e
  in
  let addr = List.nth args 1 and vm = List.nth args 2 in
  Tropic.Dsl.act ctx pool ~action:"allocateIp" ~args:[ addr ];
  Tropic.Dsl.act ctx pool ~action:"bindIp" ~args:[ addr; vm ]

let release_floating_ip ctx args =
  let pool =
    match str_arg args 0 with
    | Ok p -> Data.Path.v p
    | Error e -> Tropic.Dsl.abort e
  in
  let addr = List.nth args 1 in
  Tropic.Dsl.act ctx pool ~action:"unbindIp" ~args:[ addr ];
  Tropic.Dsl.act ctx pool ~action:"releaseIp" ~args:[ addr ]

let register_service env =
  let register name logical undo_of =
    Tropic.Dsl.register_action env
      { Tropic.Dsl.act_name = name; act_kind = pool_kind; logical; undo_of }
  in
  register "allocateIp" allocate_ip (fun _tree _path args ->
      Some ("releaseIp", args));
  register "releaseIp" release_ip (fun _tree _path _args -> None);
  register "bindIp" bind_ip (fun _tree _path args ->
      match args with addr :: _ -> Some ("unbindIp", [ addr ]) | [] -> None);
  register "unbindIp" unbind_ip (fun tree path args ->
      (* Rebinding needs the VM recorded before the unbind applied. *)
      match args with
      | [ (Value.Str addr_s) as addr ] ->
        (match Tree.get_attr tree (ip_path path addr_s) attr_bound_to with
         | Some (Value.Str vm) -> Some ("bindIp", [ addr; Value.Str vm ])
         | Some _ | None -> None)
      | _ -> None);
  List.iter
    (Tropic.Constraints.register (Tropic.Dsl.constraints_of env))
    [ pool_capacity; one_ip_per_vm ];
  Tropic.Dsl.register_proc env ~name:"assignFloatingIp" assign_floating_ip;
  Tropic.Dsl.register_proc env ~name:"releaseFloatingIp" release_floating_ip

(* --- run it --- *)

let () =
  let sim = Des.Sim.create ~seed:5 () in
  let inv = Tcloud.Setup.build Tcloud.Setup.small in
  (* Extend TCloud's environment and data model with the new service. *)
  register_service inv.Tcloud.Setup.env;
  let tree =
    match
      let* t = Tree.insert inv.Tcloud.Setup.tree (Data.Path.v "/ipRoot") ~kind:"ipRoot" () in
      Tree.insert t pool_path ~kind:pool_kind
        ~attrs:[ (attr_capacity, Value.Int 2) ]
        ()
    with
    | Ok t -> t
    | Error e -> failwith (Tree.error_to_string e)
  in
  let platform =
    Tropic.Platform.create
      {
        Tropic.Platform.default_spec with
        Tropic.Platform.mode = Tropic.Platform.Logical_only 0.01;
        controller_config = Tcloud.Setup.controller_config;
      }
      inv.Tcloud.Setup.env ~initial_tree:tree ~devices:inv.Tcloud.Setup.devices
      sim
  in
  let pool = Data.Path.to_string pool_path in
  let run what proc args =
    let state = Tropic.Platform.run_txn platform ~proc ~args in
    printf "%-52s -> %s\n" what (Tropic.Txn.state_to_string state)
  in
  ignore
    (Tropic.Platform.run platform (fun () ->
         run "assign 10.0.0.1 to web1" "assignFloatingIp"
           [ Value.Str pool; Value.Str "10.0.0.1"; Value.Str "web1" ];
         (* Second address for the same VM: the one-ip-per-vm constraint
            aborts the whole transaction — including the allocation that
            preceded the bind (atomicity). *)
         run "assign 10.0.0.2 to web1 (violates one-per-vm)" "assignFloatingIp"
           [ Value.Str pool; Value.Str "10.0.0.2"; Value.Str "web1" ];
         run "assign 10.0.0.2 to db1" "assignFloatingIp"
           [ Value.Str pool; Value.Str "10.0.0.2"; Value.Str "db1" ];
         (* Pool capacity is 2: a third allocation is refused. *)
         run "assign 10.0.0.3 to cache1 (pool full)" "assignFloatingIp"
           [ Value.Str pool; Value.Str "10.0.0.3"; Value.Str "cache1" ];
         run "release 10.0.0.1" "releaseFloatingIp"
           [ Value.Str pool; Value.Str "10.0.0.1" ];
         run "assign 10.0.0.3 to cache1 (fits now)" "assignFloatingIp"
           [ Value.Str pool; Value.Str "10.0.0.3"; Value.Str "cache1" ];
         printf "\nFinal pool state:\n";
         match Tree.subtree (Tropic.Platform.logical_tree platform) pool_path with
         | Ok node -> Format.printf "%a@." Tree.pp node
         | Error e -> printf "error: %s\n" (Tree.error_to_string e)));
  match Des.Sim.failures sim with
  | [] -> printf "\ncustom_service finished cleanly.\n"
  | (who, exn) :: _ ->
    printf "process %s crashed: %s\n" who (Printexc.to_string exn);
    exit 1
