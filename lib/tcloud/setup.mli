(** TCloud deployment builder: a complete environment (actions, stored
    procedures, constraints), an initial logical tree, and the matching
    simulated devices — the single source of truth for both layers at
    bootstrap. *)

type size = {
  compute_hosts : int;
  host_mem_mb : int;
  hypervisors : string list;  (** assigned round-robin across hosts *)
  storage_hosts : int;
  storage_capacity_mb : int;
  templates : (string * int) list;  (** name, size in MB; on every host *)
  switches : int;
  max_vlans : int;
  prepopulated_vms_per_host : int;
  prepop_vm_mem_mb : int;
}

(** A small deployment: 4 compute hosts (8 GB, xen/kvm alternating),
    2 storage hosts, 1 switch, one 10 GB template, no prepopulated VMs. *)
val small : size

(** The paper's performance scale (§6.1): 12 500 compute hosts with 8 VM
    slots each (100 000 VMs), 3 125 storage hosts. *)
val paper_scale : size

type t = {
  env : Tropic.Dsl.env;
  tree : Data.Tree.t;
  devices : Devices.Device.t list;
  computes : (Data.Path.t * Devices.Compute.t) array;
  storages : (Data.Path.t * Devices.Storage.t) array;
  switches : (Data.Path.t * Devices.Network.t) array;
}

(** {!Tropic.Controller.default_config} with TCloud's repair rules wired
    in — what a TCloud deployment should run its controllers with. *)
val controller_config : Tropic.Controller.config

(** [build ?timing ?rng size] — [timing] selects whether device actions
    consume simulated time (pass [`Process] with the platform's sim rng
    for full-mode runs). *)
val build :
  ?timing:Devices.Device.timing -> ?rng:Random.State.t -> size -> t

(** {1 Naming} *)

(** [/vmRoot/hostNNNNN] *)
val compute_path : int -> Data.Path.t

(** [/storageRoot/storageNNNNN] *)
val storage_path : int -> Data.Path.t

(** [/netRoot/switchNNN] *)
val switch_path : int -> Data.Path.t

(** Name of the [i]-th prepopulated VM on host [h]. *)
val prepop_vm_name : host:int -> index:int -> string
