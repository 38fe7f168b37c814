(** Declarative goal models: the desired state of a managed slice of the
    TCloud inventory, written as an s-expression.

    A goal lists the compute hosts and switches it manages; everything
    else in the tree is out of scope and never touched.  A managed host
    lists the VMs that should exist on it (a host listed with no VMs is a
    drain target); a managed switch lists its VLANs and their member VMs:

    {v
    (goal
      (host 0 (vm web0 running 1024) (vm web1 stopped 512))
      (host 1)
      (switch 0 (vlan 100 tenantA (port web0) (port web1))))
    v}

    [project]/[desired] reduce both the actual tree and the goal to the
    {e managed schema} — managed hosts with their VM children restricted
    to the [state]/[mem_mb] attributes, managed switches with their VLAN
    children restricted to [name]/[ports] — so {!diff} lists exactly the
    actionable drift, never incidental attributes like image imports. *)

type vm_goal = { vm_name : string; running : bool; mem_mb : int }
type host_goal = { host_index : int; vms : vm_goal list }

type vlan_goal = {
  vlan_id : int;
  vlan_name : string;
  ports : string list;  (** VM names; rendered as [vm ^ ".eth0"] ports *)
}

type switch_goal = { switch_index : int; vlans : vlan_goal list }
type t = { hosts : host_goal list; switches : switch_goal list }

(** {1 Codec} *)

val to_string : t -> string

(** Parse a goal file's contents.  Rejects duplicate host/switch indices
    and a VM listed on more than one host. *)
val of_string : string -> (t, string) result

(** [diff t ~actual] is [Diff.diff] between the two projections: the
    actionable drift, empty iff the system is converged. *)
val diff : t -> actual:Data.Tree.t -> (Data.Diff.change list, string) result
