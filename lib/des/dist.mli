(** Random-variate helpers over a {!Random.State.t} (usually {!Sim.rng}). *)

(** Uniform float in [\[lo, hi)]. *)
val uniform : Random.State.t -> lo:float -> hi:float -> float

(** Exponential variate with the given mean. *)
val exponential : Random.State.t -> mean:float -> float

(** Bernoulli trial: [true] with probability [p] (clamped to [0,1]). *)
val flip : Random.State.t -> p:float -> bool

(** Uniform integer in [\[0, n)]. @raise Invalid_argument if [n <= 0]. *)
val int : Random.State.t -> int -> int

(** Pick a uniformly random element. @raise Invalid_argument on []. *)
val choice : Random.State.t -> 'a list -> 'a

(** Pick an index distributed by the given non-negative weights.
    @raise Invalid_argument if all weights are zero or any is negative. *)
val weighted_index : Random.State.t -> float array -> int
