(** The replicated state machine: a flat, versioned key-value namespace with
    ZooKeeper-style ephemeral and sequential keys.

    Every replica applies committed log entries to its own copy; {!apply} is
    deterministic, so replicas stay identical.  Per-session request
    deduplication lives here too, making client retries exactly-once. *)

type t

(** [create ?members ()] — [members] is the boot-time ensemble
    configuration.  Every instance (boot replicas and later-added
    learners alike) must pass the {e same} canonical list: the member set
    is part of the replicated state, so replaying the log from different
    bases would diverge. *)
val create : ?members:int list -> unit -> t

(** Configuration as of the applied prefix (boot list plus every applied
    [Add_replica]/[Remove_replica]), sorted. *)
val members : t -> int list

(** [apply t cmd] executes one committed command.  Returns its result and
    the list of keys whose state changed (used by the leader to fire
    watches).  Duplicate [(session, req)] pairs return the cached result
    without re-executing.  A [Multi] is all or none: when one of its ops
    fails, the entries and the sequence counter are restored, the result is
    that op's [Op_failed] and no key is reported changed. *)
val apply : t -> Types.cmd -> Types.op_result * string list

(** Data commands (create, write, delete, multi) applied with a request
    number past [last + 1] for their session: a command of the session
    overtook or lost an earlier one.  Clients keep each session's commands
    in send order, so this stays 0.  Part of the replicated state: the
    image carries it, so a restored store keeps the count. *)
val order_gaps : t -> int

(** {1 Reads (not replicated)} *)

val get : t -> string -> (string * int) option

(** Direct children of [prefix]: keys of the form [prefix ^ "/" ^ seg] with
    no further separator, returned as full keys in lexicographic order. *)
val children : t -> string -> string list

(** The first [n] direct children of [prefix] in key order, with their
    values. *)
val children_values : t -> string -> int -> (string * string) list

(** Number of direct children of [prefix]. *)
val count_children : t -> string -> int

val exists : t -> string -> bool

(** Number of keys present. *)
val size : t -> int

(** Every key in order, with whether it is ephemeral. *)
val keys : t -> (string * bool) list

(** Sessions currently owning at least one ephemeral key. *)
val ephemeral_owners : t -> int list

(** [parent key] is the prefix before the last ['/'], if any — the key a
    child-watch on which should fire when [key] changes. *)
val parent : string -> string option

(** {1 Snapshots (log compaction)}

    [apply] is deterministic, so every replica's store is identical at a
    given applied index, and the store's state at that index serves as a
    Raft-style snapshot: the entries, the sequential-name counter, the
    request-deduplication table, the session-order gap count and the
    configuration. *)

(** The current state as an immutable image, in O(1): it shares the
    store's persistent maps, and no later {!apply} to [t] changes it. *)
val freeze : t -> Types.image

(** A fresh store holding [image]'s state, in O(1).  Applies to it never
    reach [image]. *)
val thaw : Types.image -> t
