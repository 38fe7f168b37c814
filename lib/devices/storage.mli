(** Simulated storage host (the GNBD/DRBD-over-LVM server of TCloud).

    Hosts hold image templates and cloned volumes; a clone must be exported
    (published as a network block device) before a compute host can import
    it. *)

type t

val create :
  ?timing:Device.timing ->
  ?latency:(string -> float) ->
  ?rng:Random.State.t ->
  root:Data.Path.t ->
  capacity_mb:int ->
  unit ->
  t

val device : t -> Device.t

(** Pre-load a golden image template (not an orchestration action). *)
val add_template : t -> name:string -> size_mb:int -> unit

(** Pre-populate a cloned (non-template) image — setup helper. *)
val preload_image : t -> name:string -> size_mb:int -> exported:bool -> unit

(** {1 Inspection} *)

val image_names : t -> string list
val is_template : t -> string -> bool
val is_exported : t -> string -> bool
val used_mb : t -> int
