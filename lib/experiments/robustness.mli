(** §6.3 — robustness: transaction rollback under injected errors.

    The paper injects exceptions into the last step of VM spawn and
    migrate and reports the logical-layer rollback completing in < 9 ms
    per transaction.  This experiment measures (a) the real OCaml cost of
    logical rollback for spawn and migrate logs, and (b) an end-to-end
    fault-injection run on a full platform: every injected error must end
    in a clean [Aborted] with both layers rolled back. *)

type micro = {
  iterations : int;
  spawn_rollback_us : float;
  migrate_rollback_us : float;
}

type e2e = {
  injected : int;
  aborted : int;       (** transactions that rolled back cleanly *)
  committed : int;     (** control transactions without faults *)
  residue : int;       (** VMs left behind on devices by aborted txns *)
}

type result = { micro : micro; e2e : e2e }

(** Simulation seed used when [?seed] is not given (end-to-end part only;
    the micro-benchmark is deterministic). *)
val default_seed : int

(** [quick] (default false) times 2 000 rollbacks per mean instead of
    20 000 and injects 8 faults instead of 20. *)
val run : ?seed:int -> ?quick:bool -> unit -> result
val print : result -> unit
