(* [scenario] against a fresh coordination ensemble.  There is no platform
   to drain, so the run stops as soon as [scenario] returns (replicas and
   pingers would run forever); a crashed process fails the test. *)
let ensemble ?(seed = 7) ?config scenario =
  let sim = Des.Sim.create ~seed () in
  let ens = Coord.Ensemble.create ?config sim in
  let returned = Des.Proc.run sim (fun () -> scenario sim ens) in
  (match Des.Sim.failures sim with
   | [] -> ()
   | (who, exn) :: _ ->
     Alcotest.failf "process %s crashed: %s" who (Printexc.to_string exn));
  if not returned then Alcotest.fail "scenario did not finish before the horizon"
