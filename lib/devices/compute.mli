(** Simulated compute host (the Xen server of the paper's TCloud).

    Holds imported images and VMs.  Physical preconditions are the ones a
    hypervisor would enforce (a VM must exist and be stopped to be removed,
    its image must be imported to create it, …).  Note that memory capacity
    is deliberately *not* checked here: overcommit is physically possible
    — preventing it is the job of TROPIC's logical-layer constraints. *)

type t

val create :
  ?timing:Device.timing ->
  ?latency:(string -> float) ->
  ?rng:Random.State.t ->
  root:Data.Path.t ->
  mem_mb:int ->
  hypervisor:string ->
  unit ->
  t

(** The uniform device handle workers use. *)
val device : t -> Device.t

(** Pre-populate a VM (with its image imported) at build time — setup
    helper, not an orchestration action. *)
val preload_vm :
  t -> name:string -> image:string -> mem_mb:int ->
  state:[ `Stopped | `Running ] -> unit

(** {1 Inspection} *)

val mem_mb : t -> int
val vm_names : t -> string list

(** [`Stopped], [`Running], or [None] if the VM does not exist. *)
val vm_state : t -> string -> [ `Stopped | `Running ] option

(** Sum of memory of all VMs placed on the host. *)
val used_mem_mb : t -> int

(** {1 Out-of-band events (resource volatility, §4)} *)

(** Power failure: every running VM is found stopped afterwards. *)
val power_cycle : t -> unit

(** An operator deletes a VM behind TROPIC's back. *)
val force_remove_vm : t -> string -> unit

(** Flip a VM's state without going through the platform. *)
val force_set_vm_state : t -> string -> [ `Stopped | `Running ] -> unit
