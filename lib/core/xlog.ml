type record = {
  index : int;
  path : Data.Path.t;
  action : string;
  args : Data.Value.t list;
  undo : string option;
  undo_args : Data.Value.t list;
}

type t = record list

module Print = Data.Sexp.Print
module Read = Data.Sexp.Read

(* Codec: ((<index> <path> <action> (<arg>...) (undo <action>)|() (<undo arg>...))...) *)
let print p log =
  let values vs p = List.iter (Data.Value.print p) vs in
  Print.list p (fun p ->
      List.iter
        (fun r ->
          Print.list p (fun p ->
              Print.int p r.index;
              Data.Path.print p r.path;
              Print.atom p r.action;
              Print.list p (values r.args);
              Print.list p (fun p ->
                  Option.iter
                    (fun u ->
                      Print.atom p "undo";
                      Print.atom p u)
                    r.undo);
              Print.list p (values r.undo_args)))
        log)

let read r =
  Read.list r (fun r ->
      Read.enter r;
      let index = Read.int r in
      let path = Data.Path.read r in
      let action = Read.atom r in
      let args = Read.list r Data.Value.read in
      Read.enter r;
      let undo =
        if Read.at_end r then None
        else begin
          Read.expect r "undo";
          Some (Read.atom r)
        end
      in
      Read.leave r;
      let undo_args = Read.list r Data.Value.read in
      Read.leave r;
      { index; path; action; args; undo; undo_args })

(* Write-path footprint and per-shard slicing (cross-shard 2PC): the
   participant's share of a decided transaction is exactly the log records
   whose target path it owns, so slices are re-derivable from the full log
   by anyone who knows the partition. *)

let slice log ~keep = List.filter (fun r -> keep r.path) log
