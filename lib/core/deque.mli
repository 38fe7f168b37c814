(** Double-ended queue for the controller's todoQ: new transactions join at
    the back, deferred ones return to the front (paper §3.1.1). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push_front : 'a t -> 'a -> unit
val push_back : 'a t -> 'a -> unit
val pop_front : 'a t -> 'a option
val to_list : 'a t -> 'a list

(** Remove all elements matching the predicate; returns how many. *)
val remove : 'a t -> ('a -> bool) -> int
