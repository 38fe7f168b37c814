(** Transaction routing: classify a request's resource footprint against
    the shard partition.

    The footprint is derived from the request arguments — every absolute
    path argument names a resource the stored procedure will touch (the
    tcloud procedures all follow this convention), so the owning shards
    can be computed before any simulation.  A request whose paths all land
    on one shard is routed entirely locally; a request spanning shards is
    a cross-shard transaction, coordinated by the lowest-numbered
    participant via presumed-abort two-phase commit. *)

type route =
  | Single of int  (** every path owned by one shard *)
  | Cross of { coord : int; participants : int list }
      (** [coord] is the lowest owning shard; [participants] the rest *)

(** Absolute-path arguments of a request, in argument order. *)
val arg_paths : Data.Value.t list -> Data.Path.t list

(** Pathless requests route to shard 0. *)
val classify : Shard.t -> args:Data.Value.t list -> route

val is_cross : Shard.t -> args:Data.Value.t list -> bool
