(** TROPIC's orchestration programming constructs (§2.2).

    Services are built from three kinds of definitions registered in an
    {!env}:

    - {b actions}: atomic state transitions of one resource, defined twice —
      the logical implementation here (a pure tree transformation used by
      simulation, rollback and recovery replay) and the physical one on the
      device (dispatched by action name);
    - {b queries}: read-only inspection of the logical tree;
    - {b stored procedures}: orchestration logic composing queries, actions
      and other procedures.  Procedures run only in the logical layer; what
      reaches the physical layer is the execution log they generate.

    A {!ctx} is one transaction's logical execution in progress: the tree
    being transformed, the accumulated execution log, and the read/write
    sets from which locks are inferred.  Every {!act} checks the affected
    constraints and raises {!Abort} on a violation. *)

exception Abort of string

type action_def = {
  act_name : string;
  act_kind : string;  (** entity kind of the node the action targets *)
  logical :
    Data.Tree.t -> Data.Path.t -> Data.Value.t list ->
    (Data.Tree.t, string) result;
  undo_of :
    Data.Tree.t -> Data.Path.t -> Data.Value.t list ->
    (string * Data.Value.t list) option;
      (** [undo_of pre_tree path args] — the undo action and its arguments,
          computed against the tree {e before} the action applied (so a
          remove can record how to recreate); [None] = irreversible *)
}

type env
type ctx

(** [proc_body ctx args] — a stored procedure. *)
type proc_body = ctx -> Data.Value.t list -> unit

val create_env : unit -> env
val constraints_of : env -> Constraints.registry
val register_action : env -> action_def -> unit
val register_proc : env -> name:string -> proc_body -> unit
val find_action : env -> kind:string -> action:string -> action_def option

(** {1 Primitives usable inside stored procedures} *)

(** Attribute of a node (recorded read); [None] if node or attribute absent. *)
val get_attr : ctx -> Data.Path.t -> string -> Data.Value.t option

(** Execute an action on the node at [path]: applies its logical
    implementation, appends an execution-log record, records a W intent,
    and checks affected constraints.  @raise Abort on any failure. *)
val act : ctx -> Data.Path.t -> action:string -> args:Data.Value.t list -> unit

(** Invoke another stored procedure inline. *)
val call : ctx -> proc:string -> args:Data.Value.t list -> unit

(** Abort the transaction explicitly. *)
val abort : string -> 'a

(** The tree as currently transformed by this transaction. *)
val current_tree : ctx -> Data.Tree.t

(** {1 Execution support (used by the logical layer and recovery)} *)

val fresh_ctx : env -> Data.Tree.t -> ctx
val run_proc : env -> ctx -> proc:string -> args:Data.Value.t list -> unit
val log_of : ctx -> Xlog.t
val reads_of : ctx -> Data.Path.t list
val writes_of : ctx -> Data.Path.t list
val action_count : ctx -> int

(** Re-apply one log record's logical effect (recovery replay). *)
val apply_record : env -> Data.Tree.t -> Xlog.record -> (Data.Tree.t, string) result

(** Apply one log record's logical undo (rollback); [Error] if the record
    is irreversible or the undo does not apply. *)
val apply_undo : env -> Data.Tree.t -> Xlog.record -> (Data.Tree.t, string) result
