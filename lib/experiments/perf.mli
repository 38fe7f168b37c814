(** The performance experiments of §6.1: Figures 3, 4 and 5.

    One {!run} drives the synthetic EC2 trace (scaled 1×–5×) through a
    full TROPIC deployment in logical-only mode at the paper's scale
    (12 500 compute hosts / 100 000 VM slots), and collects the controller
    CPU-utilization series (Fig. 4), the coordination-service I/O
    utilization (the bottleneck the paper identifies), and the
    per-transaction latency distribution (Fig. 5). *)

type config = {
  multiplier : int;       (** workload scale, 1–5 *)
  hosts : int;            (** compute hosts (12 500 = paper scale) *)
  window_start : int;     (** first trace second to use *)
  duration : int;         (** seconds of trace to replay *)
  bucket : float;         (** series bucket width (60 s in the paper) *)
  drain : float;          (** extra time to let the backlog finish *)
  seed : int;
}

val default_config : config

(** Shrunk variant for [--quick]: 600 s around the peak, 2 000
    hosts. *)
val quick_config : config

type result = {
  cfg : config;
  offered : int;
  committed : int;
  aborted : int;
  failed : int;
  lost : int;                     (** non-terminal at the end (must be 0) *)
  cpu_util : Metrics.Series.t;    (** controller CPU utilization, 0–1 *)
  coord_util : Metrics.Series.t;  (** coordination leader I/O utilization *)
  latency : Metrics.Cdf.t;
  sim_events : int;
  wall_seconds : float;
  stats : Tropic.Stats.stats;
      (** the shard's counters and per-phase latency recorders, summed
          over every controller instance of the run *)
}

val run : config -> result

(** Deployment size the perf runs use (also reused by {!Scale}). *)
val deployment_size : config -> Tcloud.Setup.size

(** The logical-only platform spec of the §6.1 runs. *)
val platform_spec : Tropic.Platform.spec

val print_fig3 : unit -> unit

(** Run multipliers 1..n and print Fig. 4 / Fig. 5 style output. *)
val print_fig4_fig5 : ?multipliers:int list -> config -> unit
