(** Time-bucketed series: accumulate (time, value) points into fixed-width
    buckets, for rate and utilization plots (Figs. 3 and 4). *)

type t

(** [create ~bucket ~duration] — buckets of [bucket] seconds covering
    [0, duration). *)
val create : bucket:float -> duration:float -> t

(** Add [v] (default 1.0) at time [t]; out-of-range times are clamped to
    the first/last bucket. *)
val add : ?v:float -> t -> float -> unit

(** Set a bucket's value directly (for sampled gauges). *)
val set_bucket : t -> int -> float -> unit

val bucket_count : t -> int

(** [(bucket_start_time, value)] rows, in order. *)
val rows : t -> (float * float) list

val max_value : t -> float
val sum : t -> float

(** Render as aligned two-column text, with a crude ASCII bar chart. *)
val render : ?label:string -> ?time_unit:[ `Seconds | `Hours ] -> t -> string
