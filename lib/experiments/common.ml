let run_scenario platform body =
  let quiesced = Tropic.Platform.run platform body in
  (match Des.Sim.failures (Tropic.Platform.sim platform) with
   | [] -> ()
   | (who, exn) :: _ ->
     failwith
       (Printf.sprintf "process %s crashed: %s" who (Printexc.to_string exn)));
  if not quiesced then failwith "experiment did not quiesce before the horizon"

(* End-of-run cross-layer check: every device either matches its logical
   subtree or is quarantined awaiting reconciliation. *)
let layers_consistent platform (inv : Tcloud.Setup.t) =
  match Tropic.Platform.leader_controller platform with
  | None -> false
  | Some leader ->
    let quarantined = Tropic.Controller.quarantined leader in
    let tree = Tropic.Controller.tree leader in
    List.for_all
      (fun device ->
        let root = Devices.Device.root device in
        List.exists (fun q -> Data.Path.is_prefix q root) quarantined
        ||
        match Tropic.Recon.drift ~rules:Tcloud.Rules.repair_rules tree device with
        | Tropic.Recon.Same -> true
        | Tropic.Recon.Missing _ | Tropic.Recon.Differs _ -> false)
      inv.Tcloud.Setup.devices

let time_it f =
  let t0 = Sys.time () in
  let result = f () in
  (result, Sys.time () -. t0)

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let signals_summary (st : Tropic.Stats.stats) =
  Printf.sprintf "signals %d TERM / %d KILL (watchdog %d/%d)" st.terms st.kills
    st.auto_terms st.auto_kills

let robust_summary (st : Tropic.Stats.stats) =
  Printf.sprintf
    "robust: retries %d (%d transient, %d timeouts), %s, shed %d, breaker \
     %d trips / %d probes / %d closes (%d deferred)"
    st.exec_retries st.transient_failures st.timeouts (signals_summary st)
    st.sheds st.breaker_trips st.breaker_probes st.breaker_closes
    st.breaker_deferrals

let membership_summary platform =
  let m = Tropic.Platform.membership_stats platform in
  Printf.sprintf
    "membership: %d joins / %d leaves / %d catchups, %d stale sessions \
     rejected"
    m.Coord.Types.joins m.Coord.Types.leaves m.Coord.Types.catchups
    m.Coord.Types.stale_sessions_rejected

(* Shared by the binaries' --trace flags: persist the Chrome-format trace
   and report any lifecycle-invariant violations the recorder saw. *)
let dump_trace tracer ~file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Trace.to_chrome_json tracer));
  Trace.Check.validate tracer

let phase_summary (st : Tropic.Stats.stats) =
  let pair cdf = Metrics.Cdf.quantile_pair cdf ~p:0.99 in
  Printf.sprintf
    "phases[p50/p99 s]: simulate %s, lock-wait %s, replay %s, undo %s"
    (pair st.simulate_lat) (pair st.lock_wait_lat) (pair st.replay_lat)
    (pair st.undo_lat)

let sched_summary (st : Tropic.Stats.stats) =
  let per_commit =
    if st.committed = 0 then 0.
    else float_of_int st.deferrals /. float_of_int st.committed
  in
  Printf.sprintf
    "sched: deferrals/commit %.3f (%d/%d), wakeups %d (%d spurious), take \
     conflicts %d"
    per_commit st.deferrals st.committed st.wakeups st.spurious_wakeups
    st.take_conflicts
