(** Reconciliation between the logical and physical layers (paper §4).

    The one owner of §4's state and decisions.  {!drift} is the only
    comparison of a device with its logical subtree.  A leader's {!t}
    serves the two controls: [repair] runs the drifted subtree's repair
    plan (logical → physical), each step under the workers' per-action
    deadline, and [reload] adopts the device's state (physical →
    logical) under an internal write lock, deferring while a transaction
    holds the subtree.  A subtree that cannot be fixed stays in the
    {!Quarantine}; the periodic {!sweep} picks the subtrees to repair.
    The controller routes the controls to it, swaps in the tree a reload
    returns and enqueues the sweep's repairs.

    Repairs are rule-driven: a rule says how to force one attribute of one
    entity kind to its logical value (e.g. a [vm] whose [state] should be
    ["running"] is repaired with [startVM]).  Differences with no rule —
    nodes that appeared or vanished physically — are unrepairable. *)

type rule = {
  rule_kind : string;  (** entity kind of the node the attribute lives on *)
  rule_attr : string;
  make_action :
    node_name:string ->
    target:Data.Value.t ->
    (string * Data.Value.t list) option;
      (** action (and args) to run on the node's parent device object;
          [None] if this target value cannot be repaired *)
}

type step = {
  at : Data.Path.t;  (** object the action targets (the node's parent) *)
  action : string;
  args : Data.Value.t list;
}

type plan = {
  steps : step list;
  unrepaired : Data.Diff.change list;
}

type drift =
  | Same
  | Missing of Data.Tree.error  (** the device root is not in the tree *)
  | Differs of plan  (** the changes that turn the device into the tree *)

(** [drift ~rules tree device] compares [device]'s exported state with
    the subtree of [tree] at the device's root. *)
val drift : rules:rule list -> Data.Tree.t -> Devices.Device.t -> drift

(** One shard's subtrees quarantined pending reconciliation. *)
module Quarantine : sig
  type t

  (** Quarantine the paths the shard owns.  Foreign paths are ignored:
      a coordinator's copy of foreign state is stale by design, and the
      owning shard quarantines and heals its own slice. *)
  val add : t -> Data.Path.t list -> unit

  (** Is the path or an ancestor quarantined?  O(1) on an empty set. *)
  val covers : t -> Data.Path.t -> bool

  (** Sorted. *)
  val to_list : t -> Data.Path.t list
end

(** {1 A leader's reconciliation} *)

type t

(** [deadline] bounds each repair step (none: a step runs inline, and a
    hung device stalls the caller). *)
val create :
  name:string ->
  shard:Shard.t ->
  sim:Des.Sim.t ->
  rules:rule list ->
  deadline:float option ->
  constraints:Constraints.registry ->
  devices:Physical.device_lookup ->
  t

val quarantine : t -> Quarantine.t

(** The tree with the device's subtree under [path] adopted, and out of
    quarantine, under an internal write lock in the leader's [locks]
    whose release wakes [sched]; the tree as it was if a transaction
    holds the subtree (no lock is left behind), the device is unknown or
    its state violates a constraint. *)
val reload :
  t -> locks:Mglock.t -> sched:Sched.t -> Data.Tree.t -> Data.Path.t ->
  Data.Tree.t

(** Make the device under [path] match the tree, lifting the quarantine
    once nothing is left unrepaired.  Refused for another shard's
    subtree, whose copy here is stale by design. *)
val repair : t -> Data.Tree.t -> Data.Path.t -> unit

(** The roots to repair: the quarantined ones, and the owned ones that
    drifted from the tree and that no transaction holds in [locks],
    sorted. *)
val sweep : t -> locks:Mglock.t -> Data.Tree.t -> Data.Path.t list
