(** Transaction execution logs (paper Table 1).

    The logical layer records one entry per simulated action; the physical
    layer replays them in order and, on failure, executes the undo actions
    in reverse chronological order.  Logs are persisted inside transaction
    records, so a recovering controller can re-apply or roll back. *)

type record = {
  index : int;                 (** 1-based position in the log *)
  path : Data.Path.t;          (** resource object the action targets *)
  action : string;
  args : Data.Value.t list;
  undo : string option;        (** [None] — irreversible action *)
  undo_args : Data.Value.t list;
}

type t = record list (* in execution order *)

(** {1 Codec} One list of records, each
    [(<index> <path> <action> (<arg>...) (undo <action>)|() (<undo arg>...))]. *)

val print : Data.Sexp.Print.t -> t -> unit
val read : Data.Sexp.Read.t -> t

(** Records whose target path satisfies [keep] — a shard's slice of a
    cross-shard transaction's log. *)
val slice : t -> keep:(Data.Path.t -> bool) -> t
