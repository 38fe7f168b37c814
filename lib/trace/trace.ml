(* Deterministic span-tree recorder keyed by transaction id.  All
   timestamps come from the simulation clock, so traces are reproducible
   byte-for-byte from a seed.  See trace.mli for the model. *)

type span = {
  sid : int;
  txn : int;
  cat : string;
  name : string;
  parent : int option;
  start_ts : float;
  mutable end_ts : float option;
  mutable attrs : (string * string) list;
}

type event = {
  eid : int;
  etxn : int;
  ecat : string;
  ename : string;
  ts : float;
  eattrs : (string * string) list;
}

type item = S of span | E of event

type recorder = {
  sim : Des.Sim.t;
  mutable next_id : int;
  mutable items : item list; (* newest first *)
  by_id : (int, span) Hashtbl.t;
  open_stacks : (int, (int * int) list) Hashtbl.t;
      (* txn -> open (lane, sid), innermost first *)
}

(* [None] is the disabled recorder: every emitter calls straight through,
   and only this module decides whether anything is kept. *)
type t = recorder option

let off = None

let create ~sim () =
  Some
    {
      sim;
      next_id = 1;
      items = [];
      by_id = Hashtbl.create 256;
      open_stacks = Hashtbl.create 64;
    }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let fresh_lane = function None -> 0 | Some t -> fresh_id t

let stack t txn = Option.value (Hashtbl.find_opt t.open_stacks txn) ~default:[]

(* Parent = innermost open span of the same lane; a fresh lane (a worker
   execution) falls back to the innermost controller-lane (0) span — the
   transaction root.  Lanes keep concurrent executors of the same
   transaction (duplicate dispatch after a controller fail-over) from
   parenting onto each other's open spans. *)
let begin_span t ~txn ?(lane = 0) ~cat ~name ?(attrs = []) () =
  match t with
  | None -> 0
  | Some t ->
    let sid = fresh_id t in
    let st = stack t txn in
    let parent =
      match List.find_opt (fun (l, _) -> l = lane) st with
      | Some (_, p) -> Some p
      | None ->
        if lane = 0 then None
        else Option.map snd (List.find_opt (fun (l, _) -> l = 0) st)
    in
    let span =
      {
        sid;
        txn;
        cat;
        name;
        parent;
        start_ts = Des.Sim.now t.sim;
        end_ts = None;
        attrs;
      }
    in
    Hashtbl.replace t.by_id sid span;
    Hashtbl.replace t.open_stacks txn ((lane, sid) :: st);
    t.items <- S span :: t.items;
    sid

let pop_sid t txn sid =
  Hashtbl.replace t.open_stacks txn
    (List.filter (fun (_, s) -> s <> sid) (stack t txn))

(* First close wins. *)
let close t attrs span =
  if span.end_ts = None then begin
    span.end_ts <- Some (Des.Sim.now t.sim);
    span.attrs <- span.attrs @ attrs;
    pop_sid t span.txn span.sid
  end

let end_span t ?(attrs = []) sid =
  match t with
  | None -> ()
  | Some t -> Option.iter (close t attrs) (Hashtbl.find_opt t.by_id sid)

let end_named t ~txn ~name ?(attrs = []) () =
  match t with
  | None -> None
  | Some t ->
    let named (_, sid) =
      match Hashtbl.find_opt t.by_id sid with
      | Some span when span.name = name -> Some span
      | _ -> None
    in
    Option.bind (List.find_map named (stack t txn)) (fun span ->
        close t attrs span;
        Option.map (fun e -> e -. span.start_ts) span.end_ts)

let close_all t ~txn ?(attrs = []) () =
  match t with
  | None -> ()
  | Some t ->
    let now = Des.Sim.now t.sim in
    List.iter
      (fun (_, sid) ->
        match Hashtbl.find_opt t.by_id sid with
        | Some ({ end_ts = None; _ } as span) ->
          span.end_ts <- Some now;
          if span.cat = "txn" then span.attrs <- span.attrs @ attrs
          else span.attrs <- span.attrs @ [ ("closed_by", "finalize") ]
        | Some _ | None -> ())
      (stack t txn);
    Hashtbl.remove t.open_stacks txn

let instant t ~txn ~cat ~name ?(attrs = []) () =
  match t with
  | None -> ()
  | Some t ->
    let eid = fresh_id t in
    t.items <-
      E { eid; etxn = txn; ecat = cat; ename = name; ts = Des.Sim.now t.sim;
          eattrs = attrs }
      :: t.items

let items = function None -> [] | Some t -> List.rev t.items

let spans t =
  List.filter_map (function S s -> Some s | E _ -> None) (items t)

let events t =
  List.filter_map (function E e -> Some e | S _ -> None) (items t)

let span_count t = List.length (spans t)
let attr span key = List.assoc_opt key span.attrs

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_args attrs =
  let fields =
    List.map
      (fun (k, v) ->
        Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
      attrs
  in
  "{" ^ String.concat "," fields ^ "}"

let micros ts = ts *. 1e6

let to_chrome_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  let first = ref true in
  let emit line =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf line
  in
  (* Thread names: one lane per transaction, labelled by its root span. *)
  let named = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.cat = "txn" && not (Hashtbl.mem named s.txn) then begin
        Hashtbl.replace named s.txn ();
        emit
          (Printf.sprintf
             "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%d,\
              \"args\":{\"name\":\"txn %d %s\"}}"
             s.txn s.txn (json_escape s.name))
      end)
    (spans t);
  List.iter
    (function
      | S s ->
        let dur, extra =
          match s.end_ts with
          | Some e -> (micros e -. micros s.start_ts, s.attrs)
          | None -> (0., s.attrs @ [ ("unclosed", "true") ])
        in
        emit
          (Printf.sprintf
             "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\",\"pid\":1,\
              \"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":%s}"
             (json_escape s.name) (json_escape s.cat) s.txn
             (micros s.start_ts) dur (json_args extra))
      | E e ->
        emit
          (Printf.sprintf
             "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"%s\",\"cat\":\"%s\",\
              \"pid\":1,\"tid\":%d,\"ts\":%.3f,\"args\":%s}"
             (json_escape e.ename) (json_escape e.ecat) e.etxn (micros e.ts)
             (json_args e.eattrs)))
    (items t);
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Normalized textual export (golden tests, chaos reproducer dumps) *)

let to_normalized_lines t =
  let all = items t in
  (* Renumber ids densely in creation order so the dump is insensitive to
     how many ids were burnt elsewhere. *)
  let renum = Hashtbl.create 256 in
  List.iteri
    (fun i item ->
      let id = match item with S s -> s.sid | E e -> e.eid in
      Hashtbl.replace renum id (i + 1))
    all;
  let rid id = try Hashtbl.find renum id with Not_found -> 0 in
  let fmt_attrs attrs =
    if attrs = [] then ""
    else
      " {"
      ^ String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) attrs)
      ^ "}"
  in
  List.map
    (function
      | S s ->
        let parent =
          match s.parent with None -> "-" | Some p -> string_of_int (rid p)
        in
        let close =
          match s.end_ts with
          | Some e -> Printf.sprintf "%.6f" e
          | None -> "open"
        in
        Printf.sprintf "span #%d parent=%s txn=%d %s/%s t=[%.6f %s]%s"
          (rid s.sid) parent s.txn s.cat s.name s.start_ts close
          (fmt_attrs s.attrs)
      | E e ->
        Printf.sprintf "evt  #%d txn=%d %s/%s t=%.6f%s" (rid e.eid) e.etxn
          e.ecat e.ename e.ts (fmt_attrs e.eattrs))
    all

let to_normalized_string t =
  String.concat "\n" (to_normalized_lines t) ^ "\n"

(* ------------------------------------------------------------------ *)
(* Structural invariants *)

module Check = struct
  type error = { check : string; ctxn : int; detail : string }

  let error_to_string e =
    Printf.sprintf "[%s] txn %d: %s" e.check e.ctxn e.detail

  let eps = 1e-9

  let int_attr span key = Option.bind (attr span key) int_of_string_opt

  let is_undo span =
    span.name = "undo"
    || String.length span.name > 5
       && String.sub span.name 0 5 = "undo:"

  let is_action span =
    String.length span.name > 7 && String.sub span.name 0 7 = "action:"

  let validate t =
    let errs = ref [] in
    let err check ctxn fmt =
      Printf.ksprintf
        (fun detail -> errs := { check; ctxn; detail } :: !errs)
        fmt
    in
    let all_spans = spans t in
    let by_sid = Hashtbl.create 256 in
    List.iter (fun s -> Hashtbl.replace by_sid s.sid s) all_spans;
    (* balanced / duration / parent / containment *)
    List.iter
      (fun s ->
        (match s.end_ts with
         | None -> err "balanced" s.txn "span #%d %s/%s never closed" s.sid s.cat s.name
         | Some e ->
           if e < s.start_ts -. eps then
             err "duration" s.txn "span #%d %s/%s ends before it starts" s.sid
               s.cat s.name);
        match s.parent with
        | None -> ()
        | Some p ->
          (match Hashtbl.find_opt by_sid p with
           | None -> err "parent" s.txn "span #%d has unknown parent #%d" s.sid p
           | Some ps ->
             if ps.txn <> s.txn then
               err "parent" s.txn "span #%d parented across txns (#%d txn %d)"
                 s.sid p ps.txn;
             if s.start_ts < ps.start_ts -. eps then
               err "containment" s.txn
                 "span #%d %s/%s starts before parent #%d" s.sid s.cat s.name p;
             (match (s.end_ts, ps.end_ts) with
              | Some ce, Some pe ->
                if ce > pe +. eps then
                  err "containment" s.txn
                    "span #%d %s/%s ends after parent #%d" s.sid s.cat s.name p
              | _ -> ())))
      all_spans;
    (* monotone creation order *)
    let _ =
      List.fold_left
        (fun prev item ->
          let ts = match item with S s -> s.start_ts | E e -> e.ts in
          if ts < prev -. eps then
            (match item with
             | S s ->
               err "monotone" s.txn "span #%d recorded out of time order" s.sid
             | E e ->
               err "monotone" e.etxn "event #%d recorded out of time order"
                 e.eid);
          Float.max prev ts)
        neg_infinity (items t)
    in
    (* per-transaction lifecycle *)
    let by_txn = Hashtbl.create 64 in
    List.iter
      (fun s ->
        let prev = Option.value (Hashtbl.find_opt by_txn s.txn) ~default:[] in
        Hashtbl.replace by_txn s.txn (s :: prev))
      all_spans;
    let children_of group parent_sid =
      List.filter (fun s -> s.parent = Some parent_sid) group
    in
    Hashtbl.iter
      (fun txn rev_group ->
        let group = List.rev rev_group in
        let roots = List.filter (fun s -> s.cat = "txn") group in
        (match roots with
         | [] | [ _ ] -> ()
         | _ -> err "root" txn "%d root spans" (List.length roots));
        let ok_actions parent_sid =
          List.filter_map
            (fun s ->
              if is_action s && attr s "outcome" = Some "ok" then
                int_attr s "index"
              else None)
            (children_of group parent_sid)
        in
        (* committed lifecycle *)
        (match roots with
         | [ root ] when attr root "state" = Some "committed" ->
           (* After a fail-over the same transaction can be replayed by two
              workers at once; the losing duplicate legitimately aborts on
              the already-applied state and undoes its (empty) progress.
              Only undo work under the *committed* execution — or outside
              any replay span — contradicts the committed state. *)
           let span_by_sid sid = List.find_opt (fun s -> s.sid = sid) group in
           let rec enclosing_replay s =
             match Option.bind s.parent span_by_sid with
             | None -> None
             | Some p -> if p.name = "replay" then Some p else enclosing_replay p
           in
           let offending_undo =
             List.filter
               (fun s ->
                 is_undo s && s.parent <> None
                 &&
                 match enclosing_replay s with
                 | Some r -> attr r "outcome" = Some "committed"
                 | None -> true)
               group
           in
           if offending_undo <> [] then
             err "committed-no-undo" txn
               "%d undo spans under the committed execution"
               (List.length offending_undo);
           let replays = List.filter (fun s -> s.name = "replay") group in
           (* A replay that resumed after a crash (attr [resume=k]) only
              runs actions k..n-1 itself; actions 0..k-1 were applied by
              earlier incarnations, whose interrupted replay spans still
              carry the ok action spans.  Coverage is therefore: the
              committed incarnation ran exactly its own tail, and every
              skipped index has an ok action span under {e some} replay
              of this transaction. *)
           let covering replay =
             attr replay "outcome" = Some "committed"
             && (attr replay "mode" = Some "logical"
                ||
                match int_attr replay "actions" with
                | None -> false
                | Some n ->
                  let resume =
                    Option.value (int_attr replay "resume") ~default:0
                  in
                  let idx = List.sort_uniq compare (ok_actions replay.sid) in
                  (* Action indices are 1-based: a resume of [k] means
                     records 1..k were skipped and k+1..n ran here. *)
                  List.length idx = n - resume
                  && List.for_all (fun i -> i > resume) idx
                  &&
                  let all =
                    List.sort_uniq compare
                      (List.concat_map (fun s -> ok_actions s.sid) replays)
                  in
                  List.for_all
                    (fun i -> List.mem i all)
                    (List.init resume (fun i -> i + 1)))
           in
           if not (List.exists covering replays) then
             err "committed-coverage" txn
               "no replay span with committed outcome covering all actions"
         | _ -> ());
        (* aborted-in-physical lifecycle: undo order mirrors replay order.
           A replay that lost a duplicate-race to a committed incarnation
           deliberately skips its rollback (unwinding would corrupt the
           winner's effects), so a committed sibling replay waives the
           undo requirement. *)
        let committed_sibling =
          List.exists
            (fun s ->
              s.name = "replay" && attr s "outcome" = Some "committed")
            group
        in
        List.iter
          (fun replay ->
            if replay.name = "replay" && attr replay "outcome" = Some "aborted"
            then begin
              let executed = ok_actions replay.sid in
              let undos =
                List.filter (fun s -> s.name = "undo")
                  (children_of group replay.sid)
              in
              match undos with
              | [] ->
                if executed <> [] && not committed_sibling then
                  err "undo-missing" txn
                    "aborted replay #%d with %d executed actions has no undo \
                     span"
                    replay.sid (List.length executed)
              | u :: _ ->
                let undone =
                  List.filter_map
                    (fun s -> if is_undo s then int_attr s "index" else None)
                    (children_of group u.sid)
                in
                if undone <> List.rev executed then
                  err "undo-order" txn
                    "undo indices [%s] are not the reverse of executed [%s]"
                    (String.concat ";" (List.map string_of_int undone))
                    (String.concat ";" (List.map string_of_int executed))
            end)
          group)
      by_txn;
    List.rev !errs
end
