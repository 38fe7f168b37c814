exception Abort of string

type action_def = {
  act_name : string;
  act_kind : string;
  logical :
    Data.Tree.t -> Data.Path.t -> Data.Value.t list ->
    (Data.Tree.t, string) result;
  undo_of :
    Data.Tree.t -> Data.Path.t -> Data.Value.t list ->
    (string * Data.Value.t list) option;
}

type env = {
  actions : (string * string, action_def) Hashtbl.t; (* kind, action name *)
  procs : (string, proc_body) Hashtbl.t;
  constraints : Constraints.registry;
}

and ctx = {
  env : env;
  mutable tree : Data.Tree.t;
  mutable rev_log : Xlog.record list;
  mutable reads : Data.Path.t list;
  mutable writes : Data.Path.t list;
  mutable n_actions : int;
}

and proc_body = ctx -> Data.Value.t list -> unit

let create_env () =
  {
    actions = Hashtbl.create 32;
    procs = Hashtbl.create 16;
    constraints = Constraints.create ();
  }

let constraints_of env = env.constraints

let register_action env def =
  Hashtbl.replace env.actions (def.act_kind, def.act_name) def

let register_proc env ~name body = Hashtbl.replace env.procs name body
let find_action env ~kind ~action = Hashtbl.find_opt env.actions (kind, action)
let abort message = raise (Abort message)

let fresh_ctx env tree =
  { env; tree; rev_log = []; reads = []; writes = []; n_actions = 0 }

let current_tree ctx = ctx.tree
let log_of ctx = List.rev ctx.rev_log
let reads_of ctx = List.rev ctx.reads
let writes_of ctx = List.rev ctx.writes
let action_count ctx = ctx.n_actions

(* ------------------------------------------------------------------ *)
(* Queries *)

let get_attr ctx path attr =
  ctx.reads <- path :: ctx.reads;
  Data.Tree.get_attr ctx.tree path attr

(* ------------------------------------------------------------------ *)
(* Actions *)

let resolve_action env tree path action =
  match Data.Tree.find tree path with
  | None ->
    Error (Printf.sprintf "no such resource %s" (Data.Path.to_string path))
  | Some node ->
    (match find_action env ~kind:node.Data.Tree.kind ~action with
     | Some def -> Ok def
     | None ->
       Error
         (Printf.sprintf "entity %s has no action %s" node.Data.Tree.kind
            action))

let act ctx path ~action ~args =
  let def =
    match resolve_action ctx.env ctx.tree path action with
    | Ok def -> def
    | Error message -> abort message
  in
  let pre_tree = ctx.tree in
  (match def.logical ctx.tree path args with
   | Ok tree' -> ctx.tree <- tree'
   | Error message ->
     abort (Printf.sprintf "%s at %s: %s" action (Data.Path.to_string path) message));
  ctx.n_actions <- ctx.n_actions + 1;
  let undo, undo_args =
    match def.undo_of pre_tree path args with
    | Some (undo_name, undo_args) -> (Some undo_name, undo_args)
    | None -> (None, [])
  in
  ctx.rev_log <-
    { Xlog.index = ctx.n_actions; path; action; args; undo; undo_args }
    :: ctx.rev_log;
  ctx.writes <- path :: ctx.writes;
  match Constraints.check_path ctx.env.constraints ctx.tree path with
  | [] -> ()
  | violation :: _ ->
    abort (Format.asprintf "%a" Constraints.pp_violation violation)

(* ------------------------------------------------------------------ *)
(* Procedures *)

let run_proc env ctx ~proc ~args =
  match Hashtbl.find_opt env.procs proc with
  | Some body -> body ctx args
  | None -> abort (Printf.sprintf "no such stored procedure %s" proc)

let call ctx ~proc ~args = run_proc ctx.env ctx ~proc ~args

(* ------------------------------------------------------------------ *)
(* Log replay (recovery) and logical rollback *)

let apply_record env tree (record : Xlog.record) =
  match resolve_action env tree record.Xlog.path record.Xlog.action with
  | Error _ as e -> e
  | Ok def -> def.logical tree record.Xlog.path record.Xlog.args

let apply_undo env tree (record : Xlog.record) =
  match record.Xlog.undo with
  | None ->
    Error (Printf.sprintf "action %s is irreversible" record.Xlog.action)
  | Some undo_name ->
    (match resolve_action env tree record.Xlog.path undo_name with
     | Error _ as e -> e
     | Ok def -> def.logical tree record.Xlog.path record.Xlog.undo_args)
