module Smap = Map.Make (String)

type node = {
  kind : string;
  names : string array;
  values : Value.t array;
  children : node Smap.t;
}

type t = node

type error =
  | Missing of Path.t
  | Exists of Path.t
  | No_parent of Path.t
  | Root_immutable

let pp_error fmt = function
  | Missing p -> Format.fprintf fmt "no such path %a" Path.pp p
  | Exists p -> Format.fprintf fmt "path already exists %a" Path.pp p
  | No_parent p -> Format.fprintf fmt "parent of %a does not exist" Path.pp p
  | Root_immutable -> Format.pp_print_string fmt "the root cannot be removed"

let error_to_string e = Format.asprintf "%a" pp_error e

(* Attributes: [names] ascending and distinct, [values] parallel to it.
   A kind fixes its names, so a node takes its [names] array from a like
   node wherever one is at hand (a copy-on-write update, the sibling before
   it, an earlier node of the same decode) and holds only its values.
   Nothing is shared through a table that outlives the call. *)

(* Literal arrays, allocated inline, up to the three bindings a kind
   usually has; [Array.of_list] calls into the runtime. *)
let arrays = function
  | [] -> ([||], [||])
  | [ (a, x) ] -> ([| a |], [| x |])
  | [ (a, x); (b, y) ] -> ([| a; b |], [| x; y |])
  | [ (a, x); (b, y); (c, z) ] -> ([| a; b; c |], [| x; y; z |])
  | l -> (Array.of_list (List.map fst l), Array.of_list (List.map snd l))

(* Sorted by name; of a repeated name the last binding wins.  An insertion
   sort: a node has its kind's few attributes. *)
let layout attrs =
  let rec add ((name, _) as b) = function
    | [] -> [ b ]
    | ((n, _) as h) :: rest ->
      let c = String.compare name n in
      if c < 0 then b :: h :: rest
      else if c = 0 then b :: rest
      else h :: add b rest
  in
  arrays (List.fold_left (fun sorted b -> add b sorted) [] attrs)

let index node name =
  let rec go i =
    if i = Array.length node.names then None
    else if String.equal node.names.(i) name then Some i
    else go (i + 1)
  in
  go 0

let attr node name =
  match index node name with Some i -> Some node.values.(i) | None -> None

let attrs node =
  List.init (Array.length node.names) (fun i -> (node.names.(i), node.values.(i)))

let arrays_equal eq a b =
  a == b || (Array.length a = Array.length b && Array.for_all2 eq a b)

let attrs_equal a b =
  arrays_equal String.equal a.names b.names
  && arrays_equal Value.equal a.values b.values

let make_node ~kind ?(attrs = []) ?(children = []) () =
  let names, values = layout attrs in
  { kind; names; values; children = Smap.of_seq (List.to_seq children) }

let with_children node children = { node with children }

let empty = make_node ~kind:"root" ()

let rec node_equal a b =
  a == b
  || String.equal a.kind b.kind
     && attrs_equal a b
     && Smap.equal node_equal a.children b.children

let equal = node_equal

let rec find_node node segs =
  match segs with
  | [] -> Some node
  | seg :: rest ->
    (match Smap.find_opt seg node.children with
     | Some child -> find_node child rest
     | None -> None)

let find t path = find_node t (Path.segments path)
let mem t path = Option.is_some (find t path)
let get_attr t path name = Option.bind (find t path) (fun node -> attr node name)
let kind t path = Option.map (fun node -> node.kind) (find t path)

let children t path =
  Option.map (fun node -> Smap.bindings node.children) (find t path)

let child_names t path =
  Option.map (List.map fst) (children t path)

let fold f t init =
  let rec go path node acc =
    let acc = f path node acc in
    Smap.fold (fun name child acc -> go (Path.child path name) child acc)
      node.children acc
  in
  go Path.root t init

let size t = fold (fun path _ acc -> if Path.is_root path then acc else acc + 1) t 0

(* [child] is about to sit under [parent] as [name], replacing [current]:
   unless it keeps [current]'s names, it takes those of the sibling just
   before it when that is of its kind with equal names. *)
let share_names parent name current child =
  match current with
  | Some cur when cur.names == child.names -> child
  | _ when Array.length child.names = 0 -> child
  | _ ->
    (match
       Smap.find_last_opt (fun k -> String.compare k name < 0) parent.children
     with
     | Some (_, sib)
       when sib.names != child.names
            && String.equal sib.kind child.kind
            && arrays_equal String.equal sib.names child.names ->
       { child with names = sib.names }
     | _ -> child)

(* Rebuild the spine from the root to [path], applying [f] to the node at
   [path] ([f None] when absent; returning [None] deletes it). *)
let update t path (f : node option -> (node option, error) result) =
  let rec go node segs =
    match segs with
    | [] ->
      (match f (Some node) with
       | Ok (Some node') -> Ok (Some node')
       | Ok None -> Error Root_immutable
       | Error e -> Error e)
    | [ last ] ->
      let current = Smap.find_opt last node.children in
      (match f current with
       | Error e -> Error e
       | Ok None ->
         (match current with
          | None -> Error (Missing path)
          | Some _ ->
            Ok (Some { node with children = Smap.remove last node.children }))
       | Ok (Some child') ->
         let child' = share_names node last current child' in
         Ok (Some { node with children = Smap.add last child' node.children }))
    | seg :: rest ->
      (match Smap.find_opt seg node.children with
       | None ->
         (* An intermediate node is absent: classify the failure. *)
         (match f None with
          | Error e -> Error e
          | Ok (Some _) -> Error (No_parent path)
          | Ok None -> Error (Missing path))
       | Some child ->
         (match go child rest with
          | Error e -> Error e
          | Ok None -> assert false (* only the last step deletes *)
          | Ok (Some child') ->
            Ok (Some { node with children = Smap.add seg child' node.children })))
  in
  match go t (Path.segments path) with
  | Ok (Some root) -> Ok root
  | Ok None -> Error Root_immutable
  | Error e -> Error e

let insert t path ~kind ?(attrs = []) () =
  update t path (function
    | Some _ -> Error (Exists path)
    | None -> Ok (Some (make_node ~kind ~attrs ())))

let remove t path =
  if Path.is_root path then Error Root_immutable
  else
    update t path (function
      | None -> Error (Missing path)
      | Some _ -> Ok None)

let modify_existing t path f =
  update t path (function
    | None -> Error (Missing path)
    | Some node -> Ok (Some (f node)))

(* Copy-on-write: setting a bound name copies the values and keeps the
   node's [names]. *)
let set_attr t path name value =
  modify_existing t path (fun node ->
      match index node name with
      | Some i ->
        let values = Array.copy node.values in
        values.(i) <- value;
        { node with values }
      | None ->
        let names, values = layout ((name, value) :: attrs node) in
        { node with names; values })

let remove_attr t path name =
  modify_existing t path (fun node ->
      let names, values =
        layout (List.filter (fun (n, _) -> not (String.equal n name)) (attrs node))
      in
      { node with names; values })

let set_kind t path kind = modify_existing t path (fun node -> { node with kind })

let replace_subtree t path node =
  if Path.is_root path then Ok node
  else
    update t path (function
      | None -> Error (Missing path)
      | Some _ -> Ok (Some node))

let subtree t path =
  match find t path with Some node -> Ok node | None -> Error (Missing path)

module Print = Sexp.Print
module Read = Sexp.Read

(* Codec: (node <kind> (attrs (<name> <value>)...) (children (<name> <node>)...)) *)
let rec print p node =
  Print.list p (fun p ->
      Print.atom p "node";
      Print.atom p node.kind;
      Print.list p (fun p ->
          Print.atom p "attrs";
          Array.iteri
            (fun i name ->
              Print.list p (fun p ->
                  Print.atom p name;
                  Value.print p node.values.(i)))
            node.names);
      Print.list p (fun p ->
          Print.atom p "children";
          Smap.iter
            (fun name child ->
              Print.list p (fun p ->
                  Print.atom p name;
                  print p child))
            node.children))

(* One decode shares equal kinds, attribute names and scalar values, and
   gives a node the names array of the last node of its kind when they are
   equal: a checkpoint of thousands of like nodes then holds one copy of
   each, not one per node.  The tables live for the call only. *)
let read r =
  let strings = Hashtbl.create 64
  and scalars = Hashtbl.create 64
  and kind_names = ref [] in
  let share tbl v =
    match Hashtbl.find_opt tbl v with
    | Some shared -> shared
    | None ->
      Hashtbl.add tbl v v;
      v
  in
  let scalar = function
    | (Value.Str _ | Value.Int _ | Value.Bool _) as v -> share scalars v
    | v -> v
  in
  (* Entries [(<name> <item>)...] up to the list's end, last first. *)
  let rec entries key item acc =
    if Read.at_end r then begin
      Read.leave r;
      acc
    end
    else begin
      Read.enter r;
      let name = key (Read.atom r) in
      let x = item () in
      Read.leave r;
      entries key item ((name, x) :: acc)
    end
  in
  let rec node () =
    Read.enter r;
    Read.expect r "node";
    let kind = share strings (Read.atom r) in
    Read.enter r;
    Read.expect r "attrs";
    let attrs = entries (share strings) (fun () -> scalar (Value.read r)) [] in
    Read.enter r;
    Read.expect r "children";
    let children = entries Fun.id node [] in
    Read.leave r;
    let names, values = layout attrs in
    let names =
      match List.assq_opt kind !kind_names with
      | Some shared when arrays_equal String.equal shared names -> shared
      | _ ->
        kind_names := (kind, names) :: List.remove_assq kind !kind_names;
        names
    in
    { kind; names; values; children = Smap.of_seq (List.to_seq children) }
  in
  node ()

let to_string t = Print.to_string (fun p -> print p t)
let of_string = Read.of_string read

let pp fmt t =
  let rec go indent name node =
    Format.fprintf fmt "%s%s [%s]" indent name node.kind;
    List.iter
      (fun (attr_name, v) -> Format.fprintf fmt " %s=%a" attr_name Value.pp v)
      (attrs node);
    Format.pp_print_newline fmt ();
    Smap.iter (fun child_name child -> go (indent ^ "  ") child_name child)
      node.children
  in
  go "" "/" t
