(** Transaction records and their life cycle (paper Fig. 2).

    A record is persisted in the coordination service at every state
    transition that matters for recovery, so a newly elected controller can
    rebuild its in-memory state (todo queue, lock table, logical tree)
    without losing any transaction. *)

type state =
  | Initialized          (** created by the client, in inputQ *)
  | Accepted             (** dequeued by the controller, in todoQ *)
  | Deferred             (** hit a lock conflict; back at the head of todoQ *)
  | Started              (** simulated, locks held, handed to the physical layer *)
  | Committed
  | Aborted of string    (** rolled back cleanly; reason recorded *)
  | Failed of string     (** an undo failed: cross-layer inconsistency *)

val state_to_string : state -> string
val state_of_string : string -> (state, string) result

(** Terminal states are [Committed], [Aborted] and [Failed]. *)
val is_terminal : state -> bool

(** Canonical reason string for transactions shed by admission control
    (the fast overload abort — no locks taken, no hardware touched). *)
val overload_reason : string

(** True for [Aborted overload_reason]: an expected load-shedding
    outcome, not an orchestration failure. *)
val is_overload : state -> bool

type t = {
  id : int;
  proc : string;                     (** stored procedure name *)
  args : Data.Value.t list;
  mutable state : state;
  mutable log : Xlog.t;              (** filled by logical simulation *)
  mutable locks : (Data.Path.t * Mglock.mode) list;
  mutable start_seq : int option;
      (** order in which the controller started transactions; recovery
          replays Started/Committed logs in this order *)
  mutable termed : bool;
      (** TERMed while Started: its worker stops and undoes (§4) *)
  mutable submitted_at : float;
  mutable finished_at : float option;
}

(** The paths [t] holds W locks on: its write set. *)
val write_paths : t -> Data.Path.t list

val make : id:int -> proc:string -> args:Data.Value.t list -> submitted_at:float -> t

(** {1 Persistence} *)

val to_string : t -> string
val of_string : string -> (t, string) result

(** Key of this transaction's record in the coordination service,
    e.g. ["/tropic/txns/t0000000042"]. *)
val record_key : int -> string

(** Same, under a shard namespace (see {!Proto.ns_of_shard}). *)
val record_key_ns : string -> int -> string
