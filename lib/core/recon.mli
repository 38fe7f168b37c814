(** Reconciliation between the logical and physical layers (paper §4).

    The one owner of §4's state and decisions.  {!drift} is the only
    comparison of a device with its logical subtree.  A drifted subtree
    is fixed by {!execute}-ing its repair plan (logical → physical) or by
    {!adopt}-ing the device's state ([reload], physical → logical); one
    that cannot be fixed goes into the {!Quarantine}.  The controller
    keeps the reload's lock, the tree swap, the sweep's controls and the
    log lines.

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

val pp_step : Format.formatter -> step -> unit

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

(** Run a plan's steps in order, each under the per-action [deadline] (a
    timed-out step is a failed step); stops at the first failure. *)
val execute :
  sim:Des.Sim.t -> deadline:float option -> Devices.Device.t -> plan ->
  (unit, step * Devices.Device.error) result

(** [tree] with the device's subtree replaced by its exported state,
    unless that state violates a constraint. *)
val adopt :
  Constraints.registry -> Data.Tree.t -> Devices.Device.t ->
  ( Data.Tree.t,
    [ `Missing of Data.Tree.error | `Violates of Constraints.violation ] )
  result

(** One shard's subtrees quarantined pending reconciliation. *)
module Quarantine : sig
  type t

  val create : Shard.t -> t

  (** Quarantine the paths the shard owns.  Foreign paths are ignored:
      a coordinator's copy of foreign state is stale by design, and the
      owning shard quarantines and heals its own slice. *)
  val add : t -> Data.Path.t list -> unit

  (** Lift every entry at or below a path. *)
  val clear : t -> Data.Path.t -> unit

  (** Is the path or an ancestor quarantined?  O(1) on an empty set. *)
  val covers : t -> Data.Path.t -> bool

  (** Sorted. *)
  val to_list : t -> Data.Path.t list
end
