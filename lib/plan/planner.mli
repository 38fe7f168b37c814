(** The goal-state planner: compile the drift between the actual tree and
    a {!Model.t} into a dependency-ordered DAG of TROPIC transactions,
    each resolved to a stored procedure from the TCloud registry.

    Planning rules:
    - a VM present only in the goal is spawned ([spawnVM], plus a
      [stopVM] follow-up when the desired state is stopped);
    - a VM present only in the tree is destroyed ([destroyVM]);
    - a VM removed from one managed host and added on another with the
      same memory and a matching hypervisor becomes one [migrateVM]
      (plus a state fix-up when the desired state differs);
    - a memory change is a rebuild: [destroyVM] then [spawnVM], ordered;
    - VLAN/port drift maps to [createVlan]/[removeVlan]/
      [attachVmVlan]/[detachVmVlan], with port detaches before the VLAN
      remove and port attaches after the VLAN create and after the
      spawn/migrate of the VM they reference;
    - capacity edges: when a host's inbound memory (spawns + migrations
      in) exceeds its free memory, every inbound step waits for every
      outbound step on that host — drain before fill.

    The step list is a deterministic topological order of the DAG.  When
    the capacity edges form a cycle (e.g. a swap between two full hosts),
    the planner breaks it by splitting one migration into two hops
    through a staging host — a managed host with matching hypervisor and
    enough free memory.  If no staging host exists the cyclic steps are
    reported as unplannable rather than emitted in an unexecutable
    order. *)

type step = {
  step_id : int;
  proc : string;             (** stored-procedure name *)
  args : Data.Value.t list;
  label : string;            (** human-readable description *)
  deps : int list;           (** step ids that must commit first *)
}

type t = {
  steps : step list;         (** topologically ordered *)
  unplannable : string list; (** drift no procedure can realize *)
}

(** Planner inputs that come from the deployment, not the tree: how VM
    images map to storage hosts and which template spawns clone. *)
type context = { storage_hosts : int; template : string }

val step_to_string : step -> string

(** [compile ctx model ~actual] — [Ok empty] when already converged.
    [ordered:false] drops every dependency edge and emits the steps in
    raw emission order (the chaos ablation; never use it for real). *)
val compile :
  ?ordered:bool ->
  context ->
  Model.t ->
  actual:Data.Tree.t ->
  (t, string) result
