type record = {
  index : int;
  path : Data.Path.t;
  action : string;
  args : Data.Value.t list;
  undo : string option;
  undo_args : Data.Value.t list;
}

type t = record list

let record_to_sexp r =
  let open Data.Sexp in
  List
    [
      of_int r.index;
      Data.Path.to_sexp r.path;
      Atom r.action;
      List (List.map Data.Value.to_sexp r.args);
      (match r.undo with Some u -> List [ Atom "undo"; Atom u ] | None -> List []);
      List (List.map Data.Value.to_sexp r.undo_args);
    ]

let ( let* ) r f = Result.bind r f

let values_of_sexps = Data.Sexp.map_result Data.Value.of_sexp

let record_of_sexp sexp =
  match sexp with
  | Data.Sexp.List [ index; path; Data.Sexp.Atom action; Data.Sexp.List args; undo_part; Data.Sexp.List undo_args ] ->
    let* index = Data.Sexp.to_int index in
    let* path = Data.Path.of_sexp path in
    let* args = values_of_sexps args in
    let* undo =
      match undo_part with
      | Data.Sexp.List [ Data.Sexp.Atom "undo"; Data.Sexp.Atom u ] -> Ok (Some u)
      | Data.Sexp.List [] -> Ok None
      | other -> Error ("bad undo field: " ^ Data.Sexp.to_string other)
    in
    let* undo_args = values_of_sexps undo_args in
    Ok { index; path; action; args; undo; undo_args }
  | other -> Error ("Xlog.record_of_sexp: " ^ Data.Sexp.to_string other)

let to_sexp log = Data.Sexp.List (List.map record_to_sexp log)

let of_sexp sexp =
  match sexp with
  | Data.Sexp.List records -> Data.Sexp.map_result record_of_sexp records
  | Data.Sexp.Atom _ -> Error "Xlog.of_sexp: expected a list"

(* Write-path footprint and per-shard slicing (cross-shard 2PC): the
   participant's share of a decided transaction is exactly the log records
   whose target path it owns, so slices are re-derivable from the full log
   by anyone who knows the partition. *)

let slice log ~keep = List.filter (fun r -> keep r.path) log
