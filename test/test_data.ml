(* Tests for the hierarchical data model: sexp codec, values, paths, trees,
   diffs. *)

open Data

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

let ok_or_fail what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" what msg

let tree_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Tree.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Sexp *)

let test_sexp_print_parse () =
  let cases =
    [
      Sexp.Atom "hello", "hello";
      Sexp.Atom "two words", {|"two words"|};
      Sexp.Atom "", {|""|};
      Sexp.Atom "a\"b\\c\n", {|"a\"b\\c\n"|};
      Sexp.List [], "()";
      ( Sexp.List [ Sexp.Atom "a"; Sexp.List [ Sexp.Atom "b"; Sexp.Atom "c" ] ],
        "(a (b c))" );
    ]
  in
  List.iter
    (fun (sexp, expected) ->
      check string_c "print" expected (Sexp.to_string sexp);
      let parsed = ok_or_fail "parse" (Sexp.of_string expected) in
      check bool_c "roundtrip" true (Sexp.equal sexp parsed))
    cases

let test_sexp_parse_errors () =
  List.iter
    (fun input ->
      match Sexp.of_string input with
      | Ok _ -> Alcotest.failf "expected parse error for %S" input
      | Error _ -> ())
    [ ""; "("; ")"; "(a"; {|"unterminated|}; {|"bad \q escape"|}; "a b" ]

let test_sexp_whitespace () =
  let parsed = ok_or_fail "parse" (Sexp.of_string "  ( a\n\tb )  ") in
  check bool_c "tolerates whitespace" true
    (Sexp.equal (Sexp.List [ Sexp.Atom "a"; Sexp.Atom "b" ]) parsed)

let test_sexp_comments () =
  let parsed =
    ok_or_fail "parse"
      (Sexp.of_string "; goal file header\n(a ; trailing\n b) ; tail")
  in
  check bool_c "comments skipped" true
    (Sexp.equal (Sexp.List [ Sexp.Atom "a"; Sexp.Atom "b" ]) parsed);
  (* An atom containing ';' is quoted by the printer, so it survives. *)
  let tricky = Sexp.List [ Sexp.Atom "semi;colon" ] in
  check bool_c "quoted semicolon roundtrips" true
    (Sexp.equal tricky (ok_or_fail "re" (Sexp.of_string (Sexp.to_string tricky))))

let sexp_gen =
  let open QCheck.Gen in
  let atom_gen = string_size ~gen:printable (int_range 0 12) in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then map (fun s -> Sexp.Atom s) atom_gen
          else
            frequency
              [
                3, map (fun s -> Sexp.Atom s) atom_gen;
                2, map (fun xs -> Sexp.List xs) (list_size (int_bound 4) (self (n / 2)));
              ])
        (min n 20))

let sexp_arbitrary = QCheck.make ~print:Sexp.to_string sexp_gen

let sexp_fuzz_prop =
  QCheck.Test.make ~name:"sexp parser never raises on junk" ~count:1000
    QCheck.(string_gen_of_size (Gen.int_bound 30) Gen.char)
    (fun junk ->
      match Sexp.of_string junk with Ok _ | Error _ -> true)

let sexp_roundtrip_prop =
  QCheck.Test.make ~name:"sexp print/parse roundtrip" ~count:500 sexp_arbitrary
    (fun sexp ->
      match Sexp.of_string (Sexp.to_string sexp) with
      | Ok parsed -> Sexp.equal sexp parsed
      | Error _ -> false)

(* The Buffer-based printer [Sexp.to_string] used before it learned to
   size its output exactly; kept here as the oracle the exact printer must
   match byte for byte. *)
let buffer_to_string sexp =
  let escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  in
  let needs_quoting s =
    String.length s = 0
    || String.exists
         (fun c ->
           match c with
           | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | '\\' | ';' -> true
           | c -> Char.code c < 32 || Char.code c = 127)
         s
  in
  let buf = Buffer.create 64 in
  let rec go = function
    | Sexp.Atom s -> if needs_quoting s then escape buf s else Buffer.add_string buf s
    | Sexp.List xs ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ' ';
          go x)
        xs;
      Buffer.add_char buf ')'
  in
  go sexp;
  Buffer.contents buf

(* Atoms over every character class the printer treats specially. *)
let tricky_sexp_gen =
  let open QCheck.Gen in
  let char_gen =
    frequency
      [ (4, char_range 'a' 'z');
        (3, oneofl [ ' '; '\t'; '\n'; '\r'; '('; ')'; '"'; '\\'; ';' ]);
        (1, map Char.chr (int_range 0 255)) ]
  in
  let atom_gen = map (fun s -> Sexp.Atom s) (string_size ~gen:char_gen (int_range 0 10)) in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then atom_gen
          else
            frequency
              [ (3, atom_gen);
                (2, map (fun xs -> Sexp.List xs) (list_size (int_bound 5) (self (n / 2)))) ])
        (min n 24))

let sexp_exact_printer_prop =
  QCheck.Test.make ~name:"sexp exact-size printer matches the buffer printer"
    ~count:1000
    (QCheck.make ~print:buffer_to_string tricky_sexp_gen)
    (fun sexp ->
      let printed = Sexp.to_string sexp in
      String.equal printed (buffer_to_string sexp)
      &&
      match Sexp.of_string printed with
      | Ok parsed -> Sexp.equal sexp parsed
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Value *)

let value_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          let scalar =
            oneof
              [
                return Value.Null;
                map (fun b -> Value.Bool b) bool;
                map (fun i -> Value.Int i) int;
                map (fun f -> Value.Float f) (float_bound_inclusive 1e9);
                map (fun s -> Value.Str s) (string_size ~gen:printable (int_bound 10));
              ]
          in
          if n <= 0 then scalar
          else
            frequency
              [
                4, scalar;
                1, map (fun xs -> Value.List xs) (list_size (int_bound 3) (self (n / 2)));
              ])
        (min n 10))

let value_arbitrary = QCheck.make ~print:Value.to_string value_gen

(* The value encoding as a Sexp.t, built apart from the codec: the model
   the direct printer must match.  A value is typed by its shape. *)
let rec value_sexp = function
  | Value.Null -> Sexp.Atom "n"
  | Value.Bool b -> Sexp.Atom (if b then "t" else "f")
  | Value.Int i -> Sexp.Atom (string_of_int i)
  | Value.Float f ->
    Sexp.Atom
      (if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "~%.0f." f
       else Printf.sprintf "~%h" f)
  | Value.Str s -> Sexp.Atom ("'" ^ s)
  | Value.List xs -> Sexp.List (List.map value_sexp xs)

(* The tree encoding as a Sexp.t over any node shape: [kind n], [attrs n]
   (bindings in name order) and [children n] (in name order).  The layouts
   ((<kind> <name>...)...) in first-use preorder, then the nodes
   (<layout index> <value>... <child name> <child node>...). *)
let positional_sexp ~kind ~attrs ~children root =
  let layout n = (kind n, List.map fst (attrs n)) in
  let rec collect seen n =
    let seen = if List.mem (layout n) seen then seen else layout n :: seen in
    List.fold_left (fun seen (_, c) -> collect seen c) seen (children n)
  in
  let table = List.rev (collect [] root) in
  let index n =
    let rec find i = function
      | l :: rest -> if l = layout n then i else find (i + 1) rest
      | [] -> assert false
    in
    find 0 table
  in
  let rec node n =
    Sexp.List
      ((Sexp.Atom (string_of_int (index n)) :: List.map (fun (_, v) -> value_sexp v) (attrs n))
       @ List.concat_map (fun (c, child) -> [ Sexp.Atom c; node child ]) (children n))
  in
  Sexp.List
    [ Sexp.List
        (List.map (fun (k, names) -> Sexp.List (List.map Sexp.atom (k :: names))) table);
      node root ]

let value_roundtrip_prop =
  QCheck.Test.make ~name:"value sexp roundtrip" ~count:500 value_arbitrary
    (fun v ->
      match
        Sexp.Read.of_string Value.read
          (Sexp.Print.to_string (fun p -> Value.print p v))
      with
      | Ok v' -> Value.equal v v'
      | Error _ -> false)

let test_value_accessors () =
  check (Alcotest.option int_c) "as_int" (Some 3) (Value.as_int (Value.Int 3));
  check (Alcotest.option int_c) "as_int on str" None
    (Value.as_int (Value.Str "3"));
  check (Alcotest.option (Alcotest.float 1e-9)) "as_number on int" (Some 3.)
    (Value.as_number (Value.Int 3));
  check (Alcotest.option (Alcotest.float 1e-9)) "as_number on float" (Some 2.5)
    (Value.as_number (Value.Float 2.5));
  check (Alcotest.option bool_c) "as_bool" (Some true)
    (Value.as_bool (Value.Bool true))

let test_value_compare_total () =
  let vs = [ Value.Null; Value.Bool false; Value.Int 0; Value.Float 0.;
             Value.Str ""; Value.List [] ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c1 = Value.compare a b and c2 = Value.compare b a in
          check int_c "antisymmetric" (Stdlib.compare c1 0) (Stdlib.compare 0 c2))
        vs)
    vs

(* ------------------------------------------------------------------ *)
(* Path *)

let test_path_parse_print () =
  let p = ok_or_fail "parse" (Path.of_string "/vmRoot/host-1/vm_2") in
  check string_c "print" "/vmRoot/host-1/vm_2" (Path.to_string p);
  check (Alcotest.list string_c) "segments" [ "vmRoot"; "host-1"; "vm_2" ]
    (Path.segments p);
  check string_c "root prints" "/" (Path.to_string Path.root);
  check int_c "depth" 3 (Path.depth p)

let test_path_invalid () =
  List.iter
    (fun s ->
      match Path.of_string s with
      | Ok _ -> Alcotest.failf "expected error for %S" s
      | Error _ -> ())
    [ ""; "no-slash"; "//"; "/a//b"; "/a/"; "/a b"; "/a/(x)" ]

let test_path_family () =
  let p = Path.v "/a/b/c" in
  check (Alcotest.option string_c) "basename" (Some "c") (Path.basename p);
  (match Path.parent p with
   | Some parent -> check string_c "parent" "/a/b" (Path.to_string parent)
   | None -> Alcotest.fail "parent");
  check (Alcotest.list string_c) "ancestors nearest-first"
    [ "/a/b"; "/a"; "/" ]
    (List.map Path.to_string (Path.ancestors p));
  check bool_c "prefix self" true (Path.is_prefix p p);
  check bool_c "prefix ancestor" true (Path.is_prefix (Path.v "/a") p);
  check bool_c "root prefixes all" true (Path.is_prefix Path.root p);
  check bool_c "not prefix sibling" false
    (Path.is_prefix (Path.v "/a/x") p);
  check bool_c "descendant not prefix" false (Path.is_prefix p (Path.v "/a"))

let path_gen =
  let open QCheck.Gen in
  let seg = oneofl [ "a"; "b"; "host-1"; "vm_2"; "img.qcow2"; "x" ] in
  map
    (fun segs -> List.fold_left Path.child Path.root segs)
    (list_size (int_bound 5) seg)

let path_arbitrary = QCheck.make ~print:Path.to_string path_gen

let path_roundtrip_prop =
  QCheck.Test.make ~name:"path string roundtrip" ~count:300 path_arbitrary
    (fun p ->
      match Path.of_string (Path.to_string p) with
      | Ok p' -> Path.equal p p'
      | Error _ -> false)

let path_prefix_prop =
  QCheck.Test.make ~name:"parent is always a prefix" ~count:300 path_arbitrary
    (fun p ->
      match Path.parent p with
      | None -> Path.is_root p
      | Some parent -> Path.is_prefix parent p && not (Path.equal parent p))

(* ------------------------------------------------------------------ *)
(* Tree *)

let sample_tree () =
  let t = Tree.empty in
  let t = tree_ok "insert vmRoot" (Tree.insert t (Path.v "/vmRoot") ~kind:"vmRoot" ()) in
  let t =
    tree_ok "insert host"
      (Tree.insert t (Path.v "/vmRoot/host1") ~kind:"vmHost"
         ~attrs:[ "mem_mb", Value.Int 8192; "hypervisor", Value.Str "xen" ]
         ())
  in
  let t =
    tree_ok "insert vm"
      (Tree.insert t (Path.v "/vmRoot/host1/vm1") ~kind:"vm"
         ~attrs:[ "state", Value.Str "stopped"; "mem_mb", Value.Int 1024 ]
         ())
  in
  t

(* Build a tree from (path, kind, attrs) rows, parents listed first. *)
let tree_of entries =
  List.fold_left
    (fun t (path, kind, attrs) ->
      tree_ok ("insert " ^ path) (Tree.insert t (Path.v path) ~kind ~attrs ()))
    Tree.empty entries

let test_tree_insert_find () =
  let t = sample_tree () in
  check (Alcotest.option string_c) "kind" (Some "vm")
    (Tree.kind t (Path.v "/vmRoot/host1/vm1"));
  check bool_c "mem" true (Tree.mem t (Path.v "/vmRoot/host1"));
  check bool_c "not mem" false (Tree.mem t (Path.v "/vmRoot/host2"));
  (match Tree.get_attr t (Path.v "/vmRoot/host1") "mem_mb" with
   | Some (Value.Int 8192) -> ()
   | _ -> Alcotest.fail "attr");
  check int_c "size" 3 (Tree.size t);
  check (Alcotest.option (Alcotest.list string_c)) "children"
    (Some [ "vm1" ])
    (Tree.child_names t (Path.v "/vmRoot/host1"))

let test_tree_errors () =
  let t = sample_tree () in
  (match Tree.insert t (Path.v "/vmRoot/host1") ~kind:"vmHost" () with
   | Error (Tree.Exists _) -> ()
   | _ -> Alcotest.fail "expected Exists");
  (match Tree.insert t (Path.v "/nowhere/x") ~kind:"x" () with
   | Error (Tree.No_parent _) -> ()
   | _ -> Alcotest.fail "expected No_parent");
  (match Tree.remove t (Path.v "/vmRoot/ghost") with
   | Error (Tree.Missing _) -> ()
   | _ -> Alcotest.fail "expected Missing");
  (match Tree.remove t Path.root with
   | Error Tree.Root_immutable -> ()
   | _ -> Alcotest.fail "expected Root_immutable");
  match Tree.set_attr t (Path.v "/ghost") "a" Value.Null with
  | Error (Tree.Missing _) -> ()
  | _ -> Alcotest.fail "expected Missing on set_attr"

let test_tree_remove_subtree () =
  let t = sample_tree () in
  let t' = tree_ok "remove" (Tree.remove t (Path.v "/vmRoot/host1")) in
  check bool_c "subtree gone" false (Tree.mem t' (Path.v "/vmRoot/host1/vm1"));
  check int_c "size after" 1 (Tree.size t')

let test_tree_persistence () =
  let t = sample_tree () in
  let t' =
    tree_ok "set" (Tree.set_attr t (Path.v "/vmRoot/host1/vm1") "state"
                     (Value.Str "running"))
  in
  (* The original snapshot is untouched: rollbacks restore old values. *)
  (match Tree.get_attr t (Path.v "/vmRoot/host1/vm1") "state" with
   | Some (Value.Str "stopped") -> ()
   | _ -> Alcotest.fail "old snapshot mutated");
  match Tree.get_attr t' (Path.v "/vmRoot/host1/vm1") "state" with
  | Some (Value.Str "running") -> ()
  | _ -> Alcotest.fail "new snapshot wrong"

let test_tree_replace_subtree () =
  let t = sample_tree () in
  let replacement =
    Tree.make_node ~kind:"vmHost"
      ~attrs:[ "mem_mb", Value.Int 4096 ]
      ~children:[ "vm9", Tree.make_node ~kind:"vm" () ]
      ()
  in
  let t' =
    tree_ok "replace" (Tree.replace_subtree t (Path.v "/vmRoot/host1") replacement)
  in
  check bool_c "new child" true (Tree.mem t' (Path.v "/vmRoot/host1/vm9"));
  check bool_c "old child gone" false (Tree.mem t' (Path.v "/vmRoot/host1/vm1"))

let test_tree_fold_preorder () =
  let t = sample_tree () in
  let paths = List.rev (Tree.fold (fun p _ acc -> Path.to_string p :: acc) t []) in
  check (Alcotest.list string_c) "preorder"
    [ "/"; "/vmRoot"; "/vmRoot/host1"; "/vmRoot/host1/vm1" ]
    paths

let test_tree_codec () =
  let t = sample_tree () in
  let t' = ok_or_fail "decode" (Tree.of_string (Tree.to_string t)) in
  check bool_c "roundtrip equal" true (Tree.equal t t')

(* Random tree via a sequence of inserts under previously created paths. *)
let tree_gen =
  let open QCheck.Gen in
  let* n = int_bound 20 in
  let rec build t paths k st =
    if k = 0 then t
    else
      let parent = List.nth paths (Random.State.int st (List.length paths)) in
      let name = Printf.sprintf "n%d" k in
      let path = Path.child parent name in
      match
        Tree.insert t path ~kind:"node"
          ~attrs:[ "v", Value.Int k ]
          ()
      with
      | Ok t' -> build t' (path :: paths) (k - 1) st
      | Error _ -> build t paths (k - 1) st
  in
  fun st -> build Tree.empty [ Path.root ] n st

let tree_arbitrary = QCheck.make ~print:Tree.to_string tree_gen

let tree_codec_prop =
  QCheck.Test.make ~name:"tree sexp roundtrip" ~count:200 tree_arbitrary
    (fun t ->
      match Tree.of_string (Tree.to_string t) with
      | Ok t' -> Tree.equal t t'
      | Error _ -> false)

let tree_size_prop =
  QCheck.Test.make ~name:"size counts non-root nodes" ~count:200 tree_arbitrary
    (fun t ->
      let counted = Tree.fold (fun p _ acc -> if Path.is_root p then acc else acc + 1) t 0 in
      counted = Tree.size t)

(* ------------------------------------------------------------------ *)
(* Diff *)

let test_diff_equal_trees () =
  let t = sample_tree () in
  check int_c "no changes" 0 (List.length (Diff.diff ~old_tree:t ~new_tree:t))

let test_diff_detects_changes () =
  let t = sample_tree () in
  let vm = Path.v "/vmRoot/host1/vm1" in
  let t1 = tree_ok "set" (Tree.set_attr t vm "state" (Value.Str "running")) in
  (match Diff.diff ~old_tree:t ~new_tree:t1 with
   | [ Diff.Attr_set (p, "state", Some (Value.Str "stopped"), Value.Str "running") ]
     when Path.equal p vm -> ()
   | changes ->
     Alcotest.failf "unexpected: %s"
       (String.concat "; " (List.map Diff.change_to_string changes)));
  let t2 = tree_ok "rm" (Tree.remove t vm) in
  (match Diff.diff ~old_tree:t ~new_tree:t2 with
   | [ Diff.Removed p ] when Path.equal p vm -> ()
   | _ -> Alcotest.fail "expected Removed");
  (match Diff.diff ~old_tree:t2 ~new_tree:t with
   | [ Diff.Added (p, _) ] when Path.equal p vm -> ()
   | _ -> Alcotest.fail "expected Added");
  let t3 = tree_ok "attr rm" (Tree.remove_attr t vm "mem_mb") in
  match Diff.diff ~old_tree:t ~new_tree:t3 with
  | [ Diff.Attr_removed (p, "mem_mb", Value.Int 1024) ] when Path.equal p vm -> ()
  | _ -> Alcotest.fail "expected Attr_removed"

let diff_empty_iff_equal_prop =
  QCheck.Test.make ~name:"diff empty iff trees equal" ~count:100
    (QCheck.pair tree_arbitrary tree_arbitrary)
    (fun (a, b) ->
      let d = Diff.diff ~old_tree:a ~new_tree:b in
      (d = []) = Tree.equal a b)

(* The deterministic ordering contract the goal-state planner (lib/plan)
   depends on: preorder; per node kind, then attrs by name, then children
   by name; Added/Removed emitted once at the subtree root. *)
let test_diff_ordering () =
  let old_tree =
    tree_of
      [
        "/vmRoot", "vmRoot", [];
        "/vmRoot/hostA", "vmHost", [ "mem_mb", Value.Int 8192 ];
        "/vmRoot/hostA/vm1", "vm", [ "state", Value.Str "running" ];
        "/vmRoot/hostA/vm2", "vm", [ "state", Value.Str "running" ];
        "/vmRoot/hostB", "vmHost", [];
      ]
  in
  let new_tree =
    tree_of
      [
        "/vmRoot", "vmRoot", [ "zone", Value.Str "z1" ];
        "/vmRoot/hostA", "vmHost", [];
        "/vmRoot/hostA/vm1", "vm", [ "state", Value.Str "stopped" ];
        "/vmRoot/hostA/vm3", "vm", [];
        "/vmRoot/hostC", "vmHost", [];
      ]
  in
  let rendered =
    List.map Diff.change_to_string
      (Diff.diff ~old_tree ~new_tree)
  in
  let expect =
    [
      (* preorder: /vmRoot's own attr change first *)
      "~ /vmRoot +zone=\"z1\"";
      (* then hostA's attr change, then hostA's children in name order *)
      "~ /vmRoot/hostA -mem_mb (was 8192)";
      "~ /vmRoot/hostA/vm1 state: \"running\" -> \"stopped\"";
      "- /vmRoot/hostA/vm2";
      "+ /vmRoot/hostA/vm3 [vm]";
      (* then hostA's siblings in name order *)
      "- /vmRoot/hostB";
      "+ /vmRoot/hostC [vmHost]";
    ]
  in
  check (Alcotest.list string_c) "deterministic order" expect rendered

let test_diff_patch_roundtrip () =
  let old_tree = sample_tree () in
  let new_tree =
    tree_of
      [
        "/vmRoot", "vmRoot", [];
        "/vmRoot/host1", "vmHost", [ "mem_mb", Value.Int 4096 ];
        "/vmRoot/host1/vm7", "vm", [ "state", Value.Str "running" ];
        "/netRoot", "netRoot", [];
      ]
  in
  match Diff.patch old_tree (Diff.diff ~old_tree ~new_tree) with
  | Ok patched -> check bool_c "patch reaches new tree" true (Tree.equal patched new_tree)
  | Error e -> Alcotest.fail (Tree.error_to_string e)

(* Folding the diff over the old tree must rebuild the new tree — this is
   the machine-checkable face of the ordering guarantee (an [Added] whose
   parent add came later would fail with [No_parent]). *)
let diff_patch_prop =
  QCheck.Test.make ~name:"patch old (diff old new) = new" ~count:300
    (QCheck.pair tree_arbitrary tree_arbitrary)
    (fun (a, b) ->
      match Diff.patch a (Diff.diff ~old_tree:a ~new_tree:b) with
      | Ok patched -> Tree.equal patched b
      | Error _ -> false)

(* Added/Removed changes each cover a whole subtree: no two adds (or two
   removes) are ever ancestor-related. *)
let diff_no_nested_subtree_changes_prop =
  QCheck.Test.make ~name:"diff adds/removes are never nested" ~count:300
    (QCheck.pair tree_arbitrary tree_arbitrary)
    (fun (a, b) ->
      let changes = Diff.diff ~old_tree:a ~new_tree:b in
      let adds =
        List.filter_map (function Diff.Added (p, _) -> Some p | _ -> None) changes
      in
      let removes =
        List.filter_map (function Diff.Removed p -> Some p | _ -> None) changes
      in
      let no_nesting paths =
        List.for_all
          (fun p ->
            List.for_all
              (fun q -> Path.equal p q || not (Path.is_prefix p q))
              paths)
          paths
      in
      no_nesting adds && no_nesting removes)


(* ------------------------------------------------------------------ *)
(* Model-based property: the tree agrees with a naive reference model
   (path-keyed association list) over random operation sequences. *)

type model_op =
  | M_insert of string * string          (* path, kind *)
  | M_remove of string
  | M_set_attr of string * string * int

let model_op_gen =
  let open QCheck.Gen in
  let path_gen =
    oneofl [ "/a"; "/a/b"; "/a/b/c"; "/a/d"; "/e"; "/e/f"; "/e/f/g" ]
  in
  frequency
    [
      4, map2 (fun p k -> M_insert (p, "k" ^ string_of_int k)) path_gen (int_bound 3);
      2, map (fun p -> M_remove p) path_gen;
      3, map2 (fun p v -> M_set_attr (p, "x", v)) path_gen (int_bound 100);
    ]

let model_ops_arbitrary =
  QCheck.make
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | M_insert (p, k) -> Printf.sprintf "insert %s %s" p k
             | M_remove p -> Printf.sprintf "remove %s" p
             | M_set_attr (p, a, v) -> Printf.sprintf "set %s.%s=%d" p a v)
           ops))
    QCheck.Gen.(list_size (int_bound 40) model_op_gen)

(* The reference: a sorted list of (path, kind, attrs). *)
module Model = struct
  type t = (string * string * (string * int) list) list

  let parent p =
    match String.rindex_opt p '/' with
    | Some 0 -> Some "/"
    | Some i -> Some (String.sub p 0 i)
    | None -> None

  let mem (m : t) p = p = "/" || List.exists (fun (q, _, _) -> q = p) m

  let insert m p kind =
    if mem m p then Error "exists"
    else if not (mem m (Option.value (parent p) ~default:"?")) then
      Error "no parent"
    else Ok ((p, kind, []) :: m)

  let remove m p =
    if not (mem m p) || p = "/" then Error "missing"
    else
      Ok
        (List.filter
           (fun (q, _, _) ->
             not (q = p || (String.length q > String.length p
                            && String.sub q 0 (String.length p + 1) = p ^ "/")))
           m)

  let set_attr m p a v =
    if not (mem m p) || p = "/" then Error "missing"
    else
      Ok
        (List.map
           (fun (q, k, attrs) ->
             if q = p then (q, k, (a, v) :: List.remove_assoc a attrs)
             else (q, k, attrs))
           m)
end

let tree_model_prop =
  QCheck.Test.make ~name:"tree agrees with reference model" ~count:300
    model_ops_arbitrary (fun ops ->
      let apply (tree, model) op =
        match op with
        | M_insert (p, kind) ->
          (match Tree.insert tree (Path.v p) ~kind (), Model.insert model p kind with
           | Ok tree', Ok model' -> (tree', model')
           | Error _, Error _ -> (tree, model)
           | Ok _, Error _ | Error _, Ok _ ->
             QCheck.Test.fail_report ("insert disagreement at " ^ p))
        | M_remove p ->
          (match Tree.remove tree (Path.v p), Model.remove model p with
           | Ok tree', Ok model' -> (tree', model')
           | Error _, Error _ -> (tree, model)
           | Ok _, Error _ | Error _, Ok _ ->
             QCheck.Test.fail_report ("remove disagreement at " ^ p))
        | M_set_attr (p, a, v) ->
          (match
             Tree.set_attr tree (Path.v p) a (Value.Int v),
             Model.set_attr model p a v
           with
           | Ok tree', Ok model' -> (tree', model')
           | Error _, Error _ -> (tree, model)
           | Ok _, Error _ | Error _, Ok _ ->
             QCheck.Test.fail_report ("set_attr disagreement at " ^ p))
      in
      let tree, model = List.fold_left apply (Tree.empty, []) ops in
      (* Same population... *)
      if Tree.size tree <> List.length model then
        QCheck.Test.fail_report "size mismatch";
      (* ...and identical per-node content. *)
      List.for_all
        (fun (p, kind, attrs) ->
          let path = Path.v p in
          Tree.kind tree path = Some kind
          && List.for_all
               (fun (a, v) -> Tree.get_attr tree path a = Some (Value.Int v))
               attrs)
        model)

(* Attribute layout: the tree against the map model, the node layout that
   held each node's attributes in an [Smap] (kept here as the reference).
   Random insert / set_attr / remove_attr / replace_subtree / Diff.patch
   sequences run on both; after every step reads, equality, diffs against
   the previous step, the binding order and the encoded bytes must agree. *)

module Map_model = struct
  module Smap = Tree.Smap

  type node = { kind : string; attrs : Value.t Smap.t; children : node Smap.t }

  let leaf kind attrs =
    { kind; attrs = Smap.of_seq (List.to_seq attrs); children = Smap.empty }

  let empty = leaf "root" []

  let rec find node = function
    | [] -> Some node
    | seg :: rest -> Option.bind (Smap.find_opt seg node.children) (fun c -> find c rest)

  (* [f] maps the node at the path ([None] when absent); [None] when the
     update fails, as the tree's would. *)
  let rec update node segs f =
    match segs with
    | [] -> f (Some node)
    | [ last ] ->
      Option.map
        (fun child -> { node with children = Smap.add last child node.children })
        (f (Smap.find_opt last node.children))
    | seg :: rest ->
      Option.bind (Smap.find_opt seg node.children) (fun child ->
          Option.map
            (fun child -> { node with children = Smap.add seg child node.children })
            (update child rest f))

  let existing g = function Some n -> Some (g n) | None -> None

  let insert m segs kind attrs =
    if segs = [] then None
    else update m segs (function Some _ -> None | None -> Some (leaf kind attrs))

  let set_attr m segs a v =
    update m segs (existing (fun n -> { n with attrs = Smap.add a v n.attrs }))

  let remove_attr m segs a =
    update m segs (existing (fun n -> { n with attrs = Smap.remove a n.attrs }))

  let replace m segs node =
    if segs = [] then None else update m segs (existing (fun _ -> node))

  let rec equal a b =
    String.equal a.kind b.kind
    && Smap.equal Value.equal a.attrs b.attrs
    && Smap.equal equal a.children b.children

  let to_sexp =
    positional_sexp
      ~kind:(fun n -> n.kind)
      ~attrs:(fun n -> Smap.bindings n.attrs)
      ~children:(fun n -> Smap.bindings n.children)

  let to_string n = buffer_to_string (to_sexp n)

  (* The diff as it was computed over attribute maps. *)
  let diff old_tree new_tree =
    let tree n = ok_or_fail "model node" (Tree.of_string (to_string n)) in
    let rec go path o n acc =
      let acc =
        if String.equal o.kind n.kind then acc
        else Diff.Kind_changed (path, o.kind, n.kind) :: acc
      in
      let acc =
        Smap.fold
          (fun a pair acc ->
            match pair with
            | Some ov, None -> Diff.Attr_removed (path, a, ov) :: acc
            | None, Some nv -> Diff.Attr_set (path, a, None, nv) :: acc
            | Some ov, Some nv when Value.equal ov nv -> acc
            | Some ov, Some nv -> Diff.Attr_set (path, a, Some ov, nv) :: acc
            | None, None -> acc)
          (Smap.merge (fun _ o n -> Some (o, n)) o.attrs n.attrs)
          acc
      in
      Smap.fold
        (fun c pair acc ->
          let p = Path.child path c in
          match pair with
          | Some _, None -> Diff.Removed p :: acc
          | None, Some nc -> Diff.Added (p, tree nc) :: acc
          | Some oc, Some nc -> go p oc nc acc
          | None, None -> acc)
        (Smap.merge (fun _ o n -> Some (o, n)) o.children n.children)
        acc
    in
    List.rev (go Path.root old_tree new_tree [])
end

type layout_op =
  | L_insert of string * string * (string * int) list
  | L_set of string * string * int
  | L_remove_attr of string * string
  | L_replace of string * string * (string * int) list
  | L_patch_back of int  (* patch to the tree this many steps back *)

let layout_paths = [ "/a"; "/a/b"; "/a/c"; "/a/b/d"; "/a/b/e"; "/f"; "/f/g" ]
let layout_names = [ "state"; "mem"; "image"; "zone"; "a" ]

let layout_op_gen =
  let open QCheck.Gen in
  let path = oneofl layout_paths and name = oneofl layout_names in
  let kind = map (fun k -> "k" ^ string_of_int k) (int_bound 1) in
  let attrs = list_size (int_bound 4) (pair name (int_bound 3)) in
  frequency
    [
      5, map3 (fun p k a -> L_insert (p, k, a)) path kind attrs;
      4, map3 (fun p a v -> L_set (p, a, v)) path name (int_bound 3);
      2, map2 (fun p a -> L_remove_attr (p, a)) path name;
      2, map3 (fun p k a -> L_replace (p, k, a)) path kind attrs;
      1, map (fun k -> L_patch_back (k + 1)) (int_bound 5);
    ]

let show_layout_op =
  let attrs a =
    String.concat "," (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) a)
  in
  function
  | L_insert (p, k, a) -> Printf.sprintf "insert %s %s [%s]" p k (attrs a)
  | L_set (p, a, v) -> Printf.sprintf "set %s.%s=%d" p a v
  | L_remove_attr (p, a) -> Printf.sprintf "unset %s.%s" p a
  | L_replace (p, k, a) -> Printf.sprintf "replace %s %s [%s]" p k (attrs a)
  | L_patch_back k -> Printf.sprintf "patch back %d" k

let layout_prop =
  QCheck.Test.make ~name:"tree: attribute layout matches the map model"
    ~count:400
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_layout_op ops))
       QCheck.Gen.(list_size (int_bound 40) layout_op_gen))
    (fun ops ->
      let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt in
      let ints = List.map (fun (n, v) -> (n, Value.Int v)) in
      let show cs =
        String.concat "; "
          (List.map
             (fun c ->
               Diff.change_to_string c
               ^
               match c with
               | Diff.Added (_, n) -> " " ^ Tree.to_string n
               | _ -> "")
             cs)
      in
      let agree what tree model =
        match (tree, model) with
        | Ok tree, Some model -> Some (tree, model)
        | Error _, None -> None
        | Ok _, None | Error _, Some _ -> fail "%s: only one side failed" what
      in
      let step history (tree, model) op =
        let segs p = Path.segments (Path.v p) in
        let next =
          match op with
          | L_insert (p, kind, a) ->
            agree "insert"
              (Tree.insert tree (Path.v p) ~kind ~attrs:(ints a) ())
              (Map_model.insert model (segs p) kind (ints a))
          | L_set (p, a, v) ->
            agree "set_attr"
              (Tree.set_attr tree (Path.v p) a (Value.Int v))
              (Map_model.set_attr model (segs p) a (Value.Int v))
          | L_remove_attr (p, a) ->
            agree "remove_attr"
              (Tree.remove_attr tree (Path.v p) a)
              (Map_model.remove_attr model (segs p) a)
          | L_replace (p, kind, a) ->
            agree "replace_subtree"
              (Tree.replace_subtree tree (Path.v p)
                 (Tree.make_node ~kind ~attrs:(ints a) ()))
              (Map_model.replace model (segs p) (Map_model.leaf kind (ints a)))
          | L_patch_back k ->
            (match List.nth_opt history (k - 1) with
             | None -> None
             | Some (old_tree, old_model) ->
               agree "patch"
                 (Diff.patch tree (Diff.diff ~old_tree:tree ~new_tree:old_tree))
                 (Some old_model))
        in
        Option.value next ~default:(tree, model)
      in
      let check (prev_tree, prev_model) (tree, model) =
        let encoded = Tree.to_string tree in
        if encoded <> Map_model.to_string model then
          fail "encoding %s differs from the model's %s" encoded
            (Map_model.to_string model);
        Tree.fold
          (fun path node () ->
            match Map_model.find model (Path.segments path) with
            | None -> fail "%s missing from the model" (Path.to_string path)
            | Some m ->
              if Tree.attrs node <> Tree.Smap.bindings m.Map_model.attrs then
                fail "bindings of %s out of order" (Path.to_string path);
              List.iter
                (fun a ->
                  if Tree.get_attr tree path a <> Tree.Smap.find_opt a m.Map_model.attrs
                  then fail "get_attr %s.%s" (Path.to_string path) a)
                layout_names)
          tree ();
        if Tree.equal prev_tree tree <> Map_model.equal prev_model model then
          fail "equal disagrees";
        let d = show (Diff.diff ~old_tree:prev_tree ~new_tree:tree) in
        let m = show (Map_model.diff prev_model model) in
        if d <> m then fail "diff [%s] but the model's is [%s]" d m
      in
      let _ =
        List.fold_left
          (fun history op ->
            let current = List.hd history in
            let next = step (List.tl history) current op in
            check current next;
            next :: history)
          [ (Tree.empty, Map_model.empty) ]
          ops
      in
      true)

(* ------------------------------------------------------------------ *)
(* The codecs of the data model and the records against Sexp.t *)

let test_sexp_comment_after_atom () =
  let parsed = ok_or_fail "parse" (Sexp.of_string "(a; comment\n b)") in
  check string_c "the comment ends the atom" "(a b)" (Sexp.to_string parsed)

(* Sexp.t builders of the record encodings, apart from the codecs; printed
   by [buffer_to_string], they are the model. *)
let tree_sexp =
  positional_sexp
    ~kind:(fun n -> n.Tree.kind)
    ~attrs:Tree.attrs
    ~children:(fun n -> Tree.Smap.bindings n.Tree.children)

let xlog_sexp log =
  Sexp.List
    (List.map
       (fun (r : Tropic.Xlog.record) ->
         Sexp.List
           [ Sexp.Atom (string_of_int r.index);
             Sexp.Atom (Path.to_string r.path);
             Sexp.Atom r.action;
             Sexp.List (List.map value_sexp r.args);
             (match r.undo with
              | Some u -> Sexp.List [ Sexp.Atom "undo"; Sexp.Atom u ]
              | None -> Sexp.List []);
             Sexp.List (List.map value_sexp r.undo_args) ])
       log)

let txn_sexp (t : Tropic.Txn.t) =
  let field name v = Sexp.List [ Sexp.Atom name; v ] in
  Sexp.List
    ([ field "id" (Sexp.Atom (string_of_int t.id));
       field "proc" (Sexp.Atom t.proc);
       field "args" (Sexp.List (List.map value_sexp t.args));
       field "state" (Sexp.Atom (Tropic.Txn.state_to_string t.state));
       field "log" (xlog_sexp t.log);
       field "locks"
         (Sexp.List
            (List.map
               (fun (p, m) ->
                 Sexp.List
                   [ Sexp.Atom (Path.to_string p); Sexp.Atom (Mglock.mode_to_string m) ])
               t.locks));
       field "submitted" (value_sexp (Value.Float t.submitted_at));
       field "start_seq"
         (match t.start_seq with
          | Some n -> Sexp.Atom (string_of_int n)
          | None -> Sexp.Atom "none") ]
    @ if t.termed then [ field "termed" (Sexp.Atom "true") ] else [])

(* [buffer_to_string] with a line comment after every item and around
   every list, the one after an atom right against it. *)
let commented_to_string sexp =
  let buf = Buffer.create 64 in
  let rec go = function
    | Sexp.Atom _ as atom ->
      Buffer.add_string buf (buffer_to_string atom);
      Buffer.add_string buf ";c (\"\n"
    | Sexp.List xs ->
      Buffer.add_string buf "( ; open\n";
      List.iter
        (fun x ->
          go x;
          Buffer.add_string buf "\t")
        xs;
      Buffer.add_string buf ") ; close\n"
  in
  go sexp;
  Buffer.contents buf

type codec_case =
  | Doc of Sexp.t
  | Tree_case of Tree.t
  | Log of Tropic.Xlog.t
  | Record of Tropic.Txn.t

(* The empty atom, every byte the printer escapes or quotes for, and
   non-ASCII bytes. *)
let codec_atom_gen =
  let open QCheck.Gen in
  string_size
    ~gen:
      (frequency
         [ (4, char_range 'a' 'z');
           (3, oneofl [ ' '; '('; ')'; '"'; '\\'; ';'; '\n'; '\t'; '\r'; '\127' ]);
           (1, map Char.chr (int_range 0 31));
           (1, map Char.chr (int_range 128 255)) ])
    (int_range 0 6)

(* Digit-count edges and the one int whose negation overflows. *)
let codec_int_gen =
  QCheck.Gen.(oneof [ int; oneofl [ 0; 9; 10; -1; -10; max_int; min_int ] ])

let codec_float_gen =
  let open QCheck.Gen in
  oneof
    [ float_bound_inclusive 1e9;
      map float_of_int codec_int_gen;
      oneofl [ 0.5; -0.; -2.75; 1e15; 1e300; 5e-324; infinity; neg_infinity ] ]

let codec_value_gen =
  let open QCheck.Gen in
  fix
    (fun self n ->
      let scalar =
        oneof
          [ return Value.Null;
            map (fun b -> Value.Bool b) bool;
            map (fun i -> Value.Int i) codec_int_gen;
            map (fun f -> Value.Float f) codec_float_gen;
            map (fun s -> Value.Str s) codec_atom_gen ]
      in
      if n = 0 then scalar
      else
        frequency
          [ (3, scalar);
            (1, map (fun xs -> Value.List xs) (list_size (int_bound 3) (self (n - 1)))) ])
    2

let codec_values_gen = QCheck.Gen.(list_size (int_bound 3) codec_value_gen)

let codec_path_gen =
  let open QCheck.Gen in
  map
    (fun segs -> Path.v ("/" ^ String.concat "/" segs))
    (list_size (int_range 1 3) (string_size ~gen:(char_range 'a' 'c') (int_range 1 3)))

let codec_node_gen =
  let open QCheck.Gen in
  fix
    (fun self n ->
      let* kind = codec_atom_gen in
      let* attrs = list_size (int_bound 2) (pair codec_atom_gen codec_value_gen) in
      let* children =
        if n = 0 then return [] else list_size (int_bound 3) (pair codec_atom_gen (self (n - 1)))
      in
      return (Tree.make_node ~kind ~attrs ~children ()))
    2

let codec_log_gen =
  let open QCheck.Gen in
  let* n = int_bound 3 in
  flatten_l
    (List.init n (fun i ->
         let* path = codec_path_gen in
         let* action = codec_atom_gen in
         let* args = codec_values_gen in
         let* undo = opt codec_atom_gen in
         let* undo_args = codec_values_gen in
         return { Tropic.Xlog.index = i + 1; path; action; args; undo; undo_args }))

let codec_record_gen =
  let open QCheck.Gen in
  let* id = codec_int_gen in
  let* proc = codec_atom_gen in
  let* args = codec_values_gen in
  let* submitted_at = codec_float_gen in
  let* state =
    oneof
      [ oneofl
          Tropic.Txn.[ Initialized; Accepted; Deferred; Started; Committed ];
        map (fun r -> Tropic.Txn.Aborted r) codec_atom_gen;
        map (fun r -> Tropic.Txn.Failed r) codec_atom_gen ]
  in
  let* log = codec_log_gen in
  let* locks =
    list_size (int_bound 3) (pair codec_path_gen (oneofl Mglock.[ R; W; IR; IW ]))
  in
  let* start_seq = opt codec_int_gen in
  let* termed = bool in
  let t = Tropic.Txn.make ~id ~proc ~args ~submitted_at in
  t.state <- state;
  t.log <- log;
  t.locks <- locks;
  t.start_seq <- start_seq;
  t.termed <- termed;
  return t

let codec_case_gen =
  let open QCheck.Gen in
  let doc =
    sized_size (int_bound 6)
    @@ fix (fun self n ->
           if n = 0 then map (fun s -> Sexp.Atom s) codec_atom_gen
           else
             frequency
               [ (2, map (fun s -> Sexp.Atom s) codec_atom_gen);
                 (1, map (fun xs -> Sexp.List xs) (list_size (int_bound 4) (self (n / 2)))) ])
  in
  frequency
    [ (2, map (fun xs -> Doc (Sexp.List xs)) (list_size (int_bound 4) doc));
      (1, map (fun t -> Tree_case t) codec_node_gen);
      (1, map (fun l -> Log l) codec_log_gen);
      (1, map (fun t -> Record t) codec_record_gen) ]

let codec_case_model = function
  | Doc sexp -> sexp
  | Tree_case t -> tree_sexp t
  | Log log -> xlog_sexp log
  | Record t -> txn_sexp t

(* Each codec prints what the model prints, reads it back (also with
   comments between the items), and reads every proper prefix of it as
   an [Error], never an exception. *)
let codec_model_prop =
  QCheck.Test.make ~name:"codec: printer and reader agree with the Sexp.t model"
    ~count:300
    (QCheck.make codec_case_gen ~print:(fun case ->
         buffer_to_string (codec_case_model case)))
    (fun case ->
      let agree encoded decode same =
        let model = codec_case_model case in
        let reads s = match decode s with Ok v -> same v | Error _ -> false in
        String.equal encoded (buffer_to_string model)
        && reads encoded
        && reads (commented_to_string model)
        && List.for_all
             (fun n -> Result.is_error (decode (String.sub encoded 0 n)))
             (List.init (String.length encoded) Fun.id)
      in
      match case with
      | Doc sexp -> agree (Sexp.to_string sexp) Sexp.of_string (Sexp.equal sexp)
      | Tree_case t -> agree (Tree.to_string t) Tree.of_string (Tree.equal t)
      | Log log ->
        agree
          (Sexp.Print.to_string (fun p -> Tropic.Xlog.print p log))
          (Sexp.Read.of_string Tropic.Xlog.read)
          (( = ) log)
      | Record t -> agree (Tropic.Txn.to_string t) Tropic.Txn.of_string (( = ) t))

(* Every single-atom corruption of a valid encoding that the grammar
   rules out, with what it does.  The encoding is read as a Sexp.t, one
   atom or item changed, and printed again. *)
let corruptions =
  (* [each f xs]: each element of [xs] in turn replaced by each of [f x]. *)
  let each f xs =
    List.concat
      (List.mapi
         (fun i x ->
           List.map
             (fun (what, x') -> (what, List.mapi (fun j y -> if j = i then x' else y) xs))
             (f x))
         xs)
  in
  let is_int a =
    a <> "" && match a.[0] with '-' | '0' .. '9' -> true | _ -> false
  in
  let non_numeric = "non-numeric int" in
  let with_letter a = Sexp.Atom (a ^ "z") in
  let rec value = function
    | Sexp.Atom a ->
      ("unknown value mark", Sexp.Atom ("?" ^ a))
      :: (if is_int a then [ (non_numeric, with_letter a) ] else [])
    | Sexp.List xs -> List.map (fun (w, xs) -> (w, Sexp.List xs)) (each value xs)
  in
  let values = function
    | Sexp.List xs -> List.map (fun (w, xs) -> (w, Sexp.List xs)) (each value xs)
    | Sexp.Atom _ -> []
  in
  let rec split k = function
    | x :: rest when k > 0 ->
      let taken, left = split (k - 1) rest in
      (x :: taken, left)
    | rest -> ([], rest)
  in
  let tree layouts root =
    let arity i = List.length (List.nth layouts i) - 1 in
    let rec node = function
      | Sexp.List (Sexp.Atom idx :: rest) ->
        let vs, children = split (arity (int_of_string idx)) rest in
        let at idx vs children = Sexp.List ((idx :: vs) @ children) in
        let idx' = Sexp.Atom idx in
        [ ("layout index out of range", at (Sexp.Atom (string_of_int (List.length layouts))) vs children);
          ("negative layout index", at (Sexp.Atom "-1") vs children);
          (non_numeric, at (with_letter idx) vs children);
          ("one value too many", at idx' (vs @ [ Sexp.Atom "0" ]) children) ]
        @ (match List.rev vs with
           | _ :: rest -> [ ("one value too few", at idx' (List.rev rest) children) ]
           | [] -> [])
        @ List.map (fun (w, vs) -> (w, at idx' vs children)) (each value vs)
        @ List.map
            (fun (w, children) -> (w, at idx' vs children))
            (each (function Sexp.Atom _ -> [] | child -> node child) children)
      | _ -> Alcotest.fail "not a node"
    in
    node root
  in
  function
  | `Tree (Sexp.List [ Sexp.List layouts; root ]) ->
    let layouts = List.map (function Sexp.List l -> l | Sexp.Atom _ -> []) layouts in
    List.map
      (fun (w, root) -> (w, Sexp.List [ Sexp.List (List.map (fun l -> Sexp.List l) layouts); root ]))
      (tree layouts root)
  | `Record (Sexp.List fields) ->
    let record = function
      | Sexp.List [ (Sexp.Atom "id" as f); Sexp.Atom id ] ->
        [ (non_numeric, Sexp.List [ f; with_letter id ]) ]
      | Sexp.List [ (Sexp.Atom "args" as f); args ] ->
        List.map (fun (w, args) -> (w, Sexp.List [ f; args ])) (values args)
      | Sexp.List [ (Sexp.Atom "log" as f); Sexp.List log ] ->
        let entry = function
          | Sexp.List [ Sexp.Atom index; path; action; args; undo; undo_args ] ->
            let at index args undo_args = Sexp.List [ index; path; action; args; undo; undo_args ] in
            let index' = Sexp.Atom index in
            (non_numeric, at (with_letter index) args undo_args)
            :: List.map (fun (w, args) -> (w, at index' args undo_args)) (values args)
            @ List.map (fun (w, undo_args) -> (w, at index' args undo_args)) (values undo_args)
          | _ -> Alcotest.fail "not a log entry"
        in
        List.map (fun (w, log) -> (w, Sexp.List [ f; Sexp.List log ])) (each entry log)
      | _ -> []
    in
    List.map (fun (w, fields) -> (w, Sexp.List fields)) (each record fields)
  | `Value v -> value v
  | `Tree (Sexp.Atom _ | Sexp.List _) | `Record (Sexp.Atom _) ->
    Alcotest.fail "not an encoding"

(* A malformed encoding is an [Error], never an exception nor a value:
   an out-of-range layout index, one value too few or too many, an
   unknown value mark or a non-numeric int. *)
let malformed_prop =
  QCheck.Test.make ~name:"codec: a corrupted atom is an Error, never an exception"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         oneof
           [ map (fun t -> `Tree t) codec_node_gen;
             map (fun t -> `Record t) codec_record_gen;
             map (fun v -> `Value v) codec_value_gen ])
       ~print:(function
         | `Tree t -> Tree.to_string t
         | `Record t -> Tropic.Txn.to_string t
         | `Value v -> Value.to_string v))
    (fun case ->
      let encoded, decode =
        match case with
        | `Tree t -> (Tree.to_string t, fun s -> Result.map ignore (Tree.of_string s))
        | `Record t -> (Tropic.Txn.to_string t, fun s -> Result.map ignore (Tropic.Txn.of_string s))
        | `Value v ->
          ( Sexp.Print.to_string (fun p -> Value.print p v),
            fun s -> Result.map ignore (Sexp.Read.of_string Value.read s) )
      in
      let sexp = ok_or_fail "encoding" (Sexp.of_string encoded) in
      let shape =
        match case with
        | `Tree _ -> `Tree sexp
        | `Record _ -> `Record sexp
        | `Value _ -> `Value sexp
      in
      List.iter
        (fun (what, corrupted) ->
          let s = Sexp.to_string corrupted in
          match decode s with
          | Error _ -> ()
          | Ok () -> QCheck.Test.fail_reportf "%s read back: %s" what s
          | exception e ->
            QCheck.Test.fail_reportf "%s raised %s: %s" what (Printexc.to_string e) s)
        (corruptions shape);
      true)

let suite =
  [
    ("sexp: print/parse cases", `Quick, test_sexp_print_parse);
    ("sexp: parse errors", `Quick, test_sexp_parse_errors);
    ("sexp: whitespace", `Quick, test_sexp_whitespace);
    ("sexp: line comments", `Quick, test_sexp_comments);
    QCheck_alcotest.to_alcotest sexp_roundtrip_prop;
    QCheck_alcotest.to_alcotest sexp_exact_printer_prop;
    QCheck_alcotest.to_alcotest sexp_fuzz_prop;
    QCheck_alcotest.to_alcotest value_roundtrip_prop;
    ("value: accessors", `Quick, test_value_accessors);
    ("value: compare total", `Quick, test_value_compare_total);
    ("path: parse/print", `Quick, test_path_parse_print);
    ("path: invalid", `Quick, test_path_invalid);
    ("path: family relations", `Quick, test_path_family);
    QCheck_alcotest.to_alcotest path_roundtrip_prop;
    QCheck_alcotest.to_alcotest path_prefix_prop;
    ("tree: insert/find", `Quick, test_tree_insert_find);
    ("tree: errors", `Quick, test_tree_errors);
    ("tree: remove subtree", `Quick, test_tree_remove_subtree);
    ("tree: persistence", `Quick, test_tree_persistence);
    ("tree: replace subtree", `Quick, test_tree_replace_subtree);
    ("tree: fold preorder", `Quick, test_tree_fold_preorder);
    ("tree: codec", `Quick, test_tree_codec);
    QCheck_alcotest.to_alcotest tree_codec_prop;
    QCheck_alcotest.to_alcotest tree_size_prop;
    ("diff: equal trees", `Quick, test_diff_equal_trees);
    ("diff: detects changes", `Quick, test_diff_detects_changes);
    ("diff: deterministic ordering", `Quick, test_diff_ordering);
    ("diff: patch roundtrip", `Quick, test_diff_patch_roundtrip);
    QCheck_alcotest.to_alcotest diff_empty_iff_equal_prop;
    QCheck_alcotest.to_alcotest diff_patch_prop;
    QCheck_alcotest.to_alcotest diff_no_nested_subtree_changes_prop;
    QCheck_alcotest.to_alcotest tree_model_prop;
    QCheck_alcotest.to_alcotest layout_prop;
    ("sexp: comment right after an atom", `Quick, test_sexp_comment_after_atom);
    QCheck_alcotest.to_alcotest codec_model_prop;
    QCheck_alcotest.to_alcotest malformed_prop;
  ]

let () = Alcotest.run "data" [ ("data", suite) ]
