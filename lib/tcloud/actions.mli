(** Logical implementations of TCloud's actions.

    Every device action of {!Devices} has a twin here that performs the
    same state transition on the logical data-model tree (paper §2.2: each
    action is defined twice).  The logical versions enforce the same
    preconditions as the devices, so the simulation in the logical layer
    detects the same errors the hardware would raise — without touching it.

    [register_all] installs the definitions (with their undo pairings from
    Table 1) into a {!Tropic.Dsl.env}. *)

val register_all : Tropic.Dsl.env -> unit

(** {1 Typed tree accessors shared with procedures and constraints} *)

val int_attr : Data.Tree.node -> string -> (int, string) result
val str_attr : Data.Tree.node -> string -> (string, string) result

(** Sum of [mem_mb] over all [vm] children of a host node. *)
val vm_memory_sum : Data.Tree.node -> int

(** Sum of [size_mb] over all [image] children of a storage host node. *)
val image_size_sum : Data.Tree.node -> int
