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

let maker ~kind names =
  let sorted, position = layout (List.mapi (fun i name -> (name, i)) names) in
  if Array.length sorted <> List.length names then
    invalid_arg "Tree.maker: a name is given twice";
  fun values ->
    let values = Array.of_list values in
    if Array.length values <> Array.length sorted then
      invalid_arg "Tree.maker: one value per name";
    { kind; names = sorted; values = Array.map (Array.get values) position;
      children = Smap.empty }

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

(* Codec: (<layouts> <node>).  A layout is a kind and its attribute names,
   (<kind> <name>...); the encoding lists each layout of the subtree once,
   in first-use (preorder) order, and a node is
   (<layout index> <value>... <child name> <child node>...), its values in
   the layout's name order and its children in name order. *)

let same_layout a b = String.equal a.kind b.kind && arrays_equal String.equal a.names b.names

(* One node of each layout of [root]'s subtree, in first-use order.  Like
   nodes share one names array, so most tests are a physical comparison;
   the newest layout is tested first, as siblings are mostly alike. *)
let layouts root =
  let rec collect acc node =
    let acc = if List.exists (same_layout node) acc then acc else node :: acc in
    Smap.fold (fun _ child acc -> collect acc child) node.children acc
  in
  Array.of_list (List.rev (collect [] root))

let print p root =
  let table = layouts root in
  let last = ref 0 in
  let index node =
    if not (same_layout node table.(!last)) then begin
      let rec find i = if same_layout node table.(i) then i else find (i + 1) in
      last := find 0
    end;
    !last
  in
  let rec node p n =
    Print.list p (fun p ->
        Print.int p (index n);
        Array.iter (Value.print p) n.values;
        Smap.iter
          (fun name child ->
            Print.atom p name;
            node p child)
          n.children)
  in
  Print.list p (fun p ->
      Print.list p (fun p ->
          Array.iter
            (fun l ->
              Print.list p (fun p ->
                  Print.atom p l.kind;
                  Array.iter (Print.atom p) l.names))
            table);
      node p root)

(* Every node takes its kind and names array from the layout table, and
   equal scalar values are shared: a checkpoint of thousands of like nodes
   holds one copy of each.  The tables live for the call only. *)
let read r =
  let scalars = Hashtbl.create 64 in
  let scalar = function
    | (Value.Str _ | Value.Int _ | Value.Bool _) as v ->
      (match Hashtbl.find_opt scalars v with
       | Some shared -> shared
       | None ->
         Hashtbl.add scalars v v;
         v)
    | v -> v
  in
  let read_layout r =
    match Read.list r Read.atom with
    | [] -> Read.fail r "empty layout"
    | kind :: names ->
      let names = Array.of_list names in
      for i = 1 to Array.length names - 1 do
        if String.compare names.(i - 1) names.(i) >= 0 then
          Read.fail r "layout names out of order"
      done;
      (kind, names)
  in
  Read.enter r;
  let table = Array.of_list (Read.list r read_layout) in
  let rec node () =
    Read.enter r;
    let i = Read.int r in
    if i < 0 || i >= Array.length table then Read.fail r "layout index out of range";
    let kind, names = table.(i) in
    let values = Array.map (fun _ -> scalar (Value.read r)) names in
    let rec children acc =
      if Read.at_end r then begin
        Read.leave r;
        acc
      end
      else begin
        let name = Read.atom r in
        children ((name, node ()) :: acc)
      end
    in
    let children = children [] in
    { kind; names; values; children = Smap.of_seq (List.to_seq children) }
  in
  let root = node () in
  Read.leave r;
  root

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
