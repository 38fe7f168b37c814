(* Sharding: partition/ownership properties, client-side routing, and
   end-to-end cross-shard 2PC under coordinator failures.

   The property tests pin the contracts everything else leans on: the
   round-robin partition is total and stable (every replica and router
   agrees on one owner per path), and a request is cross-shard exactly
   when its path arguments span owners, coordinated by the lowest.  The
   platform tests drive a two-shard deployment through the presumed-abort
   protocol: a clean cross-shard migrate, a coordinator crash mid-2PC
   that must resume to the durably decided outcome, and a coordinator
   group lost before deciding, which the prepared participant resolves by
   presuming abort. *)

open Tropic

let int_c = Alcotest.int
let bool_c = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Generators *)

let roots_of_hosts hosts storages =
  List.init hosts Tcloud.Setup.compute_path
  @ List.init storages Tcloud.Setup.storage_path

let gen_partition =
  QCheck.Gen.(
    let* hosts = int_range 1 12 in
    let* storages = int_range 0 3 in
    let* shards = int_range 1 6 in
    return (hosts, storages, shards))

let arb_partition =
  QCheck.make gen_partition ~print:(fun (h, s, k) ->
      Printf.sprintf "hosts=%d storages=%d shards=%d" h s k)

(* ------------------------------------------------------------------ *)
(* Partition / ownership properties *)

let prop_owner_total_and_stable =
  QCheck.Test.make ~name:"owner_of is total, bounded and replica-agreed"
    ~count:200 arb_partition (fun (hosts, storages, shards) ->
      let roots = roots_of_hosts hosts storages in
      let shard0 = Shard.make ~sid:0 ~shards roots in
      let deep root =
        [
          root;
          Data.Path.child root "vm1";
          Data.Path.child (Data.Path.child root "vm1") "state";
        ]
      in
      List.for_all
        (fun path ->
          let owner = Shard.owner_of shard0 path in
          owner >= 0
          && owner < shard0.Shard.count
          (* Every view of the partition agrees. *)
          && List.for_all
               (fun sid ->
                 Shard.owner_of (Shard.view shard0 ~sid) path = owner)
               (List.init shard0.Shard.count Fun.id)
          (* Deterministic: recomputing from scratch agrees. *)
          && Shard.owner_of (Shard.make ~sid:0 ~shards roots) path = owner)
        (List.concat_map deep roots))

let prop_partition_covers_all_shards =
  QCheck.Test.make
    ~name:"round-robin gives every shard a root when roots >= shards"
    ~count:200 arb_partition (fun (hosts, storages, shards) ->
      let roots = roots_of_hosts hosts storages in
      let shard = Shard.make ~sid:0 ~shards roots in
      QCheck.assume (List.length roots >= shard.Shard.count);
      List.for_all
        (fun sid -> Shard.roots_of shard sid <> [])
        (List.init shard.Shard.count Fun.id))

let prop_singleton_owns_everything =
  QCheck.Test.make ~name:"count=1 owns every path" ~count:50 arb_partition
    (fun (hosts, storages, _) ->
      let roots = roots_of_hosts hosts storages in
      let shard = Shard.singleton ~roots in
      List.for_all (Shard.owns shard) roots
      && Shard.owns shard (Data.Path.v "/no/such/subtree"))

(* ------------------------------------------------------------------ *)
(* Router properties *)

let host_str h = Data.Path.to_string (Tcloud.Setup.compute_path h)

let gen_request =
  QCheck.Gen.(
    let* hosts = int_range 2 12 in
    let* shards = int_range 1 6 in
    let* picks = list_size (int_range 1 4) (int_range 0 (hosts - 1)) in
    return (hosts, shards, picks))

let arb_request =
  QCheck.make gen_request ~print:(fun (h, k, picks) ->
      Printf.sprintf "hosts=%d shards=%d picks=[%s]" h k
        (String.concat ";" (List.map string_of_int picks)))

let prop_router_cross_iff_owners_span =
  QCheck.Test.make
    ~name:"classify = Cross iff path args span owners; coord is lowest"
    ~count:300 arb_request (fun (hosts, shards, picks) ->
      let roots = roots_of_hosts hosts 2 in
      let shard = Shard.make ~sid:0 ~shards roots in
      (* Mix path args with non-path args the router must ignore. *)
      let args =
        Data.Value.Str "vm1" :: Data.Value.Int 512
        :: List.map (fun h -> Data.Value.Str (host_str h)) picks
      in
      let owners =
        List.sort_uniq compare
          (List.map
             (fun h -> Shard.owner_of shard (Tcloud.Setup.compute_path h))
             picks)
      in
      match Router.classify shard ~args with
      | Router.Single sid ->
        List.length owners <= 1
        && (owners = [] || owners = [ sid ])
        && not (Router.is_cross shard ~args)
      | Router.Cross { coord; participants } ->
        List.length owners > 1
        && coord = List.hd owners
        && List.sort compare (coord :: participants) = owners
        && Router.is_cross shard ~args)

let prop_router_pathless_routes_to_zero =
  QCheck.Test.make ~name:"pathless requests route to shard 0" ~count:50
    arb_partition (fun (hosts, storages, shards) ->
      let shard = Shard.make ~sid:0 ~shards (roots_of_hosts hosts storages) in
      Router.classify shard ~args:[ Data.Value.Str "vm"; Data.Value.Int 1 ]
      = Router.Single 0)

(* A txn id names its shard: [Proto.shard_of_txn] recovers the [sid] that
   [Proto.txn_id] encoded, at every shard count from 1 to 8. *)
let prop_txn_id_roundtrip =
  QCheck.Test.make ~name:"txn ids route back to their shard (1-8 shards)"
    ~count:500
    QCheck.(triple (int_range 1 8) (int_range 0 7) (int_range 1 1_000_000))
    (fun (shards, sid, seq) ->
      let sid = sid mod shards in
      let id = Proto.txn_id ~shards ~sid seq in
      Proto.shard_of_txn ~shards id = sid
      && (shards > 1 || id = seq)
      && Proto.txn_id ~shards ~sid (seq + 1) = id + shards)

(* ------------------------------------------------------------------ *)
(* End-to-end 2PC on a two-shard platform *)

(* All-xen so host0 -> host1 migration is legal under the §6.2 VM-type
   rule (hypervisors otherwise alternate with host parity, which under
   two shards coincides with shard parity). *)
let twoshard_size =
  { Tcloud.Setup.small with Tcloud.Setup.hypervisors = [ "xen" ] }

let quick_coord_config =
  { Coord.Types.default_config with Coord.Types.default_session_timeout = 5.0 }

let twoshard_spec ?(prepare_timeout = 20.) () =
  {
    Platform.default_spec with
    Platform.controllers = 2;
    workers = 2;
    shards = 2;
    mode = Platform.Full;
    coord_config = quick_coord_config;
    controller_config =
      {
        Tcloud.Setup.controller_config with
        Controller.twopc_prepare_timeout = prepare_timeout;
      };
    controller_session_timeout = 3.0;
  }

let with_two_shards ?prepare_timeout ?(seed = 7) ?(size = twoshard_size)
    scenario =
  let sim = Des.Sim.create ~seed () in
  let inv = Tcloud.Setup.build ~timing:`Process ~rng:(Des.Sim.rng sim) size in
  let platform =
    Platform.create
      (twoshard_spec ?prepare_timeout ())
      inv.Tcloud.Setup.env ~initial_tree:inv.Tcloud.Setup.tree
      ~devices:inv.Tcloud.Setup.devices sim
  in
  Experiments.Common.run_scenario platform (fun () -> scenario platform inv)

let host_path h = Tcloud.Setup.compute_path h

let spawn_on platform ~vm ~host =
  let args =
    Tcloud.Procs.spawn_vm_args ~vm ~template:"base.img" ~mem_mb:512
      ~storage:(Data.Path.to_string (Tcloud.Setup.storage_path 0))
      ~host:(Data.Path.to_string (host_path host))
  in
  match Platform.run_txn platform ~proc:"spawnVM" ~args with
  | Txn.Committed -> ()
  | other ->
    Alcotest.failf "spawn %s: expected committed, got %s" vm
      (Txn.state_to_string other)

let migrate_args ~src ~dst ~vm =
  Tcloud.Procs.migrate_vm_args
    ~src:(Data.Path.to_string (host_path src))
    ~dst:(Data.Path.to_string (host_path dst))
    ~vm

(* Poll until [f ()] or [tries] sleeps of [gap] elapse. *)
let await_cond ?(tries = 400) ?(gap = 0.1) f =
  let n = ref 0 in
  while (not (f ())) && !n < tries do
    Des.Proc.sleep gap;
    incr n
  done;
  f ()

let check_converged platform inv hosts =
  let tree = Platform.composite_tree platform in
  List.iter
    (fun h ->
      let root, compute = inv.Tcloud.Setup.computes.(h) in
      let logical =
        match Data.Tree.subtree tree root with
        | Ok node -> node
        | Error e -> Alcotest.fail (Data.Tree.error_to_string e)
      in
      Alcotest.(check bool)
        (Printf.sprintf "host %d layers converge" h)
        true
        (Data.Tree.equal logical
           (Devices.Device.export (Devices.Compute.device compute))))
    hosts

let vm_host inv vm =
  let found = ref [] in
  Array.iteri
    (fun i (_, compute) ->
      if Devices.Compute.vm_state compute vm <> None then found := i :: !found)
    inv.Tcloud.Setup.computes;
  !found

(* host0 is owned by shard 1 and host1 by shard 0 under the two-shard
   round-robin (switch, storage0, storage1, host0, host1, ... alternate),
   so a host0 -> host1 migration always spans both shards. *)
let cross_shard_pair platform =
  let src = 0 and dst = 1 in
  Alcotest.(check bool)
    "src/dst on different shards" true
    (Platform.shard_of_path platform (host_path src)
    <> Platform.shard_of_path platform (host_path dst));
  (src, dst)

let test_cross_shard_migrate_commits () =
  with_two_shards (fun platform inv ->
      let src, dst = cross_shard_pair platform in
      spawn_on platform ~vm:"web1" ~host:src;
      (match
         Platform.run_txn platform ~proc:"migrateVM"
           ~args:(migrate_args ~src ~dst ~vm:"web1")
       with
       | Txn.Committed -> ()
       | other ->
         Alcotest.failf "migrate: expected committed, got %s"
           (Txn.state_to_string other));
      Alcotest.(check (list int)) "vm lives only on dst" [ dst ]
        (vm_host inv "web1");
      check_converged platform inv [ src; dst ];
      let coord_sid = Platform.shard_of_path platform (host_path dst) in
      let part_sid = Platform.shard_of_path platform (host_path src) in
      let coord = Platform.await_shard_leader platform coord_sid in
      let part = Platform.await_shard_leader platform part_sid in
      Alcotest.(check bool) "coordinator started a 2pc" true
        ((Controller.stats coord).Controller.twopc_started >= 1);
      Alcotest.(check bool) "coordinator committed a 2pc" true
        ((Controller.stats coord).Controller.twopc_committed >= 1);
      Alcotest.(check bool) "participant voted" true
        ((Controller.stats part).Controller.twopc_prepares >= 1))

let test_coordinator_crash_resumes_to_decided_outcome () =
  with_two_shards (fun platform inv ->
      let src, dst = cross_shard_pair platform in
      spawn_on platform ~vm:"web2" ~host:src;
      let coord_sid = Platform.shard_of_path platform (host_path dst) in
      let gid =
        Platform.submit platform ~proc:"migrateVM"
          ~args:(migrate_args ~src ~dst ~vm:"web2")
      in
      (* Wait until the coordinator has begun the prepare round, then
         crash it mid-protocol and bring the slot back. *)
      let started () =
        match Platform.shard_leader platform coord_sid with
        | None -> false
        | Some c -> (Controller.stats c).Controller.twopc_started >= 1
      in
      Alcotest.(check bool) "2pc reached prepare" true (await_cond started);
      (match Platform.shard_leader_index platform coord_sid with
       | None -> Alcotest.fail "no coordinator leader to crash"
       | Some i ->
         Platform.kill_controller platform i;
         Des.Proc.sleep 8.0;
         Platform.restart_controller platform i);
      let state = Platform.await platform gid in
      (* Either outcome is legal — what matters is that recovery resumed
         the in-doubt transaction to one durable verdict applied on both
         shards: exactly one host has the VM, and both layers agree. *)
      (match state with
       | Txn.Committed ->
         Alcotest.(check (list int)) "committed => vm only on dst" [ dst ]
           (vm_host inv "web2")
       | Txn.Aborted _ ->
         Alcotest.(check (list int)) "aborted => vm only on src" [ src ]
           (vm_host inv "web2")
       | other ->
         Alcotest.failf "expected committed or aborted, got %s"
           (Txn.state_to_string other));
      Alcotest.(check bool) "quiesced" true
        (await_cond (fun () ->
             match Platform.shard_leader platform coord_sid with
             | None -> false
             | Some c -> Controller.inflight c = 0));
      check_converged platform inv [ src; dst ])

let test_presumed_abort_on_lost_coordinator () =
  with_two_shards ~prepare_timeout:2.0 (fun platform inv ->
      let src, dst = cross_shard_pair platform in
      spawn_on platform ~vm:"web3" ~host:src;
      let coord_sid = Platform.shard_of_path platform (host_path dst) in
      let part_sid = Platform.shard_of_path platform (host_path src) in
      let gid =
        Platform.submit platform ~proc:"migrateVM"
          ~args:(migrate_args ~src ~dst ~vm:"web3")
      in
      (* Let the participant cast its vote, then take the whole
         coordinator replica group down before any decision lands.  The
         decision follows the vote within about 0.1 s, so the vote is
         polled every millisecond. *)
      let voted () =
        match Platform.shard_leader platform part_sid with
        | None -> false
        | Some c -> (Controller.stats c).Controller.twopc_prepares >= 1
      in
      Alcotest.(check bool) "participant voted" true
        (await_cond ~tries:40_000 ~gap:0.001 voted);
      let n = (Platform.spec platform).Platform.controllers in
      let slots = List.init n (fun k -> (coord_sid * n) + k) in
      List.iter (Platform.kill_controller platform) slots;
      (* The prepared participant owns the race now: past the prepare
         timeout it creates the decision record itself — as Abort. *)
      let participant_aborted () =
        match Platform.shard_leader platform part_sid with
        | None -> false
        | Some c -> (Controller.stats c).Controller.twopc_aborted >= 1
      in
      Alcotest.(check bool) "participant presumed abort" true
        (await_cond participant_aborted);
      List.iter (Platform.restart_controller platform) slots;
      (match Platform.await platform gid with
       | Txn.Aborted _ -> ()
       | other ->
         Alcotest.failf "expected aborted, got %s" (Txn.state_to_string other));
      Alcotest.(check (list int)) "vm stayed on src" [ src ]
        (vm_host inv "web3");
      (match Devices.Compute.vm_state (snd inv.Tcloud.Setup.computes.(src)) "web3"
       with
       | Some `Running -> ()
       | other ->
         Alcotest.failf "expected web3 running on src, got %s"
           (match other with
            | Some `Stopped -> "stopped"
            | None -> "absent"
            | Some `Running -> "running"));
      Alcotest.(check bool) "quiesced" true
        (await_cond (fun () ->
             match Platform.shard_leader platform coord_sid with
             | None -> false
             | Some c -> Controller.inflight c = 0));
      check_converged platform inv [ src; dst ])

let test_single_shard_request_stays_local () =
  with_two_shards (fun platform _inv ->
      let src, _ = cross_shard_pair platform in
      spawn_on platform ~vm:"solo" ~host:src;
      let host = Data.Path.to_string (host_path src) in
      (match
         Platform.run_txn platform ~proc:"stopVM"
           ~args:(Tcloud.Procs.stop_vm_args ~host ~vm:"solo")
       with
       | Txn.Committed -> ()
       | other ->
         Alcotest.failf "stop: expected committed, got %s"
           (Txn.state_to_string other));
      (* A host-local request never opens a 2PC on the owning shard. *)
      let sid = Platform.shard_of_path platform (host_path src) in
      let leader = Platform.await_shard_leader platform sid in
      Alcotest.check int_c "no coordination started on owner" 0
        (Controller.stats leader).Controller.twopc_started)

(* A KILL of a coordinator that already passed its commit point fails the
   transaction there; the participants must follow the verdict (roll the
   slice back, quarantine what the interrupted replay may have touched)
   instead of holding their W locks forever waiting for a Finish. *)
let test_kill_decided_coordinator_releases_participants () =
  let sim = Des.Sim.create ~seed:7 () in
  let inv =
    Tcloud.Setup.build ~timing:`Process ~rng:(Des.Sim.rng sim) twoshard_size
  in
  let platform =
    Platform.create (twoshard_spec ()) inv.Tcloud.Setup.env
      ~initial_tree:inv.Tcloud.Setup.tree ~devices:inv.Tcloud.Setup.devices sim
  in
  let src, dst = (0, 1) in
  let coord_sid = Platform.shard_of_path platform (host_path dst) in
  let part_sid = Platform.shard_of_path platform (host_path src) in
  let killed = ref None in
  let quiesced =
    Platform.run ~until:3000. platform (fun () ->
        spawn_on platform ~vm:"web1" ~host:src;
        let gid =
          Platform.submit platform ~proc:"migrateVM"
            ~args:(migrate_args ~src ~dst ~vm:"web1")
        in
        let started () =
          match Platform.shard_leader platform coord_sid with
          | None -> false
          | Some c -> List.mem gid (Controller.started_txns c)
        in
        Alcotest.(check bool) "coordinator started the migrate" true
          (await_cond ~gap:0.05 started);
        Platform.signal platform gid Proto.Kill;
        killed := Some (Platform.await platform gid))
  in
  (match !killed with
   | Some (Txn.Failed reason) ->
     Alcotest.(check bool) "failed by the kill" true
       (Str_contains.contains reason "killed by operator")
   | Some other ->
     Alcotest.failf "expected failed, got %s" (Txn.state_to_string other)
   | None -> Alcotest.fail "the migrate never ended");
  Alcotest.(check bool) "run quiesces" true quiesced;
  let part = Platform.await_shard_leader platform part_sid in
  Alcotest.check int_c "participant holds no locks" 0 (Controller.lock_count part);
  Alcotest.check int_c "participant has nothing in flight" 0
    (Controller.inflight part);
  let quarantined = Controller.quarantined part in
  Array.iteri
    (fun h (root, compute) ->
      if Platform.shard_of_path platform root = part_sid then
        let consistent =
          match Data.Tree.subtree (Controller.tree part) root with
          | Ok logical ->
            Data.Tree.equal logical
              (Devices.Device.export (Devices.Compute.device compute))
          | Error _ -> false
        in
        Alcotest.(check bool)
          (Printf.sprintf "host %d consistent or quarantined" h)
          true
          (consistent || List.exists (Data.Path.equal root) quarantined))
    inv.Tcloud.Setup.computes

(* Each shard's controller instances share one stats record, so after a
   kill-and-restart of every shard leader the successors' phase summary
   still holds the dead leaders' simulate samples. *)
let test_kill_restart_keeps_phase_samples () =
  with_two_shards (fun platform _inv ->
      spawn_on platform ~vm:"k0" ~host:0;
      spawn_on platform ~vm:"k1" ~host:1;
      for sid = 0 to Platform.shard_count platform - 1 do
        match Platform.shard_leader_index platform sid with
        | None -> Alcotest.failf "shard %d has no leader" sid
        | Some i ->
          Platform.kill_controller platform i;
          Platform.restart_controller platform i
      done;
      (* host0 and host1 belong to different shards: each committed one
         spawn before its leader died. *)
      for sid = 0 to Platform.shard_count platform - 1 do
        let st = Controller.stats (Platform.await_shard_leader platform sid) in
        Alcotest.(check bool)
          (Printf.sprintf "shard %d reports simulate latency" sid)
          false
          (Str_contains.contains (Experiments.Common.phase_summary st) "simulate n/a");
        Alcotest.(check int)
          (Printf.sprintf "shard %d spawn counted" sid)
          1 st.Controller.committed
      done)

(* A repair is served by the subtree's owner only.  Host 1's owner starts
   its prepopulated VM; the other shard's copy of host 1 still has it
   stopped.  A Repair control sent to that other shard must be refused:
   run against the stale copy, it would stop the VM again and undo the
   owner's committed start. *)
let test_foreign_repair_refused () =
  let size = { twoshard_size with Tcloud.Setup.prepopulated_vms_per_host = 1 } in
  with_two_shards ~size (fun platform inv ->
      let host = host_path 1 and vm = Tcloud.Setup.prepop_vm_name ~host:1 ~index:0 in
      let _, compute = inv.Tcloud.Setup.computes.(1) in
      let roots = List.map Devices.Device.root inv.Tcloud.Setup.devices in
      let owner = Shard.owner_of (Shard.make ~sid:0 ~shards:2 roots) host in
      (match
         Platform.run_txn platform ~proc:"startVM"
           ~args:(Tcloud.Procs.start_vm_args ~host:(Data.Path.to_string host) ~vm)
       with
       | Txn.Committed -> ()
       | other -> Alcotest.failf "start: %s" (Txn.state_to_string other));
      let foreign = 1 - owner in
      let client =
        Coord.Ensemble.connect (Platform.coord_ensemble platform foreign)
          ~name:"operator" ()
      in
      ignore
        (Coord.Recipes.enqueue client
           ~queue:(Proto.input_queue_ns (Proto.ns_of_shard foreign))
           (Proto.input_to_string (Proto.Control (Proto.Repair host))));
      Coord.Client.close client;
      Des.Proc.sleep 30.;
      Alcotest.(check bool) "the owner's start stands" true
        (Devices.Compute.vm_state compute vm = Some `Running))

(* Each twopc_* counter moves by exactly one over two cross-shard
   migrates: the first passes its commit point (one coordination started
   and committed, one participant vote) and is then killed, which
   quarantines the coordinator's own root; the second touches that root,
   so the coordinator refuses it before the prepare round (one abort,
   and no message: no start and no vote). *)
let test_twopc_counters_move_once () =
  let sim = Des.Sim.create ~seed:7 () in
  let inv =
    Tcloud.Setup.build ~timing:`Process ~rng:(Des.Sim.rng sim) twoshard_size
  in
  let platform =
    Platform.create (twoshard_spec ()) inv.Tcloud.Setup.env
      ~initial_tree:inv.Tcloud.Setup.tree ~devices:inv.Tcloud.Setup.devices sim
  in
  let src, dst = (0, 1) in
  let coord_sid = Platform.shard_of_path platform (host_path dst) in
  let part_sid = Platform.shard_of_path platform (host_path src) in
  (* A second source host on the participant's shard, untouched by the
     kill's quarantine. *)
  let src2 =
    List.find
      (fun h ->
        h > dst && Platform.shard_of_path platform (host_path h) = part_sid)
      (List.init (Array.length inv.Tcloud.Setup.computes) Fun.id)
  in
  let counters () =
    let st =
      Stats.sum
        (List.init (Platform.shard_count platform) (Platform.shard_stats platform))
    in
    [ st.twopc_started; st.twopc_committed; st.twopc_prepares; st.twopc_aborted ]
  in
  (* Snapshots taken inside the run, checked once it is over. *)
  let seen = ref [] in
  let snapshot what = seen := (what, counters ()) :: !seen in
  let killed = ref None and refused = ref None in
  let quiesced =
    Platform.run ~until:3000. platform (fun () ->
        spawn_on platform ~vm:"web1" ~host:src;
        spawn_on platform ~vm:"web2" ~host:src2;
        snapshot "single-shard spawns";
        let gid =
          Platform.submit platform ~proc:"migrateVM"
            ~args:(migrate_args ~src ~dst ~vm:"web1")
        in
        let started () =
          match Platform.shard_leader platform coord_sid with
          | None -> false
          | Some c -> List.mem gid (Controller.started_txns c)
        in
        if await_cond ~gap:0.05 started then begin
          Platform.signal platform gid Proto.Kill;
          killed := Some (Platform.await platform gid);
          snapshot "decided, then killed";
          refused :=
            Some
              (Platform.run_txn platform ~proc:"migrateVM"
                 ~args:(migrate_args ~src:src2 ~dst ~vm:"web2"));
          snapshot "refused before prepare"
        end)
  in
  Alcotest.(check bool) "run quiesces" true quiesced;
  (match !killed with
   | Some (Txn.Failed _) -> ()
   | Some other ->
     Alcotest.failf "killed migrate: expected failed, got %s"
       (Txn.state_to_string other)
   | None -> Alcotest.fail "the coordinator never started the migrate");
  (match !refused with
   | Some (Txn.Aborted reason) ->
     Alcotest.(check bool) "refused for the quarantine" true
       (Str_contains.contains reason "quarantined")
   | Some other ->
     Alcotest.failf "migrate into quarantine: expected aborted, got %s"
       (Txn.state_to_string other)
   | None -> Alcotest.fail "the second migrate never ran");
  snapshot "at quiescence";
  Alcotest.(check (list (pair string (list int))))
    "started / committed / prepares / aborted"
    [
      ("single-shard spawns", [ 0; 0; 0; 0 ]);
      ("decided, then killed", [ 1; 1; 1; 0 ]);
      ("refused before prepare", [ 1; 1; 1; 1 ]);
      ("at quiescence", [ 1; 1; 1; 1 ]);
    ]
    (List.rev !seen)

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ?rand:None) tests)

let () =
  ignore bool_c;
  Alcotest.run "shard"
    [
      qsuite "partition"
        [
          prop_owner_total_and_stable;
          prop_partition_covers_all_shards;
          prop_singleton_owns_everything;
        ];
      qsuite "router"
        [
          prop_router_cross_iff_owners_span;
          prop_router_pathless_routes_to_zero;
          prop_txn_id_roundtrip;
        ];
      ( "2pc",
        [
          Alcotest.test_case "cross-shard migrate commits" `Quick
            test_cross_shard_migrate_commits;
          Alcotest.test_case "coordinator crash resumes to decided outcome"
            `Quick test_coordinator_crash_resumes_to_decided_outcome;
          Alcotest.test_case "presumed abort on lost coordinator" `Quick
            test_presumed_abort_on_lost_coordinator;
          Alcotest.test_case "single-shard request stays local" `Quick
            test_single_shard_request_stays_local;
          Alcotest.test_case "kill-restart keeps phase samples" `Quick
            test_kill_restart_keeps_phase_samples;
          Alcotest.test_case "kill of a decided coordinator releases participants"
            `Quick test_kill_decided_coordinator_releases_participants;
          Alcotest.test_case "repair of a foreign shard's subtree is refused"
            `Quick test_foreign_repair_refused;
          Alcotest.test_case "each twopc counter moves by exactly one" `Quick
            test_twopc_counters_move_once;
        ] );
    ]
