(** Table 1: the execution log generated for [spawnVM], with its undo
    actions — regenerated live from the DSL, not hard-coded. *)

val print : unit -> unit
