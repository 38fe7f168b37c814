(** §6.2 — safety: the logical-layer cost of enforcing constraints.

    The paper reports that checking the two representative TCloud
    constraints (VM-type compatibility for migration, aggregate VM memory
    for placement) costs < 10 ms per transaction in their Python
    controller.  Here we measure the real OCaml cost of logical simulation
    with and without the constraint registry, over the hosting mix. *)

type result = {
  iterations : int;
  with_constraints_us : float;     (** mean per simulated txn *)
  without_constraints_us : float;
  overhead_us : float;
  migrate_block_us : float;
      (** mean cost of a migrateVM simulation that the hypervisor rule
          rejects *)
  migrate_rejected : bool;
      (** every timed cross-hypervisor migration failed simulation *)
}

(** [quick] (default false) times 2 000 simulations per mean instead of
    20 000. *)
val run : ?quick:bool -> unit -> result
val print : result -> unit
