(** Simulated programmable switch layer (the Juniper/VLAN substrate of
    TCloud).  VLANs are created per tenant; VM virtual interfaces are
    attached as ports. *)

type t

val create :
  ?timing:Device.timing ->
  ?latency:(string -> float) ->
  ?rng:Random.State.t ->
  root:Data.Path.t ->
  max_vlans:int ->
  unit ->
  t

val device : t -> Device.t

(** {1 Inspection} *)

val ports_of : t -> int -> string list option

(** {1 Out-of-band events} *)

(** An operator deletes a VLAN from the CLI behind TROPIC's back. *)
val force_remove_vlan : t -> int -> unit
