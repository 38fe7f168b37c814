(** Growable array, used for replica logs (OCaml 5.1 has no Dynarray). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

(** @raise Invalid_argument when out of bounds. *)
val get : 'a t -> int -> 'a

val push : 'a t -> 'a -> unit

(** [truncate v n] keeps the first [n] elements.
    @raise Invalid_argument if [n] exceeds the length. *)
val truncate : 'a t -> int -> unit
