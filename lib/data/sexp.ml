type t = Atom of string | List of t list

let rec equal a b =
  match a, b with
  | Atom x, Atom y -> String.equal x y
  | List xs, List ys ->
    (try List.for_all2 equal xs ys with Invalid_argument _ -> false)
  | Atom _, List _ | List _, Atom _ -> false

let atom s = Atom s
let of_int i = Atom (string_of_int i)

let rec plain s i =
  i = String.length s
  ||
  match String.unsafe_get s i with
  | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | '\\' | ';' | '\000' .. '\031' | '\127' ->
    false
  | _ -> plain s (i + 1)

let needs_quoting s = String.length s = 0 || not (plain s 0)

(* The letter after the backslash; '\000' when [c] prints as itself. *)
let escape = function
  | '"' -> '"'
  | '\\' -> '\\'
  | '\n' -> 'n'
  | '\t' -> 't'
  | '\r' -> 'r'
  | _ -> '\000'

module Print = struct
  (* The emitter runs twice: a counting pass that only advances [pos],
     then a writing pass into one string of exactly that size, so a
     megabyte checkpoint is neither built as a tree of atoms nor doubled
     through a [Buffer]. *)
  type t = {
    out : Bytes.t;
    writing : bool;
    mutable pos : int;
    mutable sep : bool;  (* the next item follows another in its list *)
  }

  let put p c =
    if p.writing then Bytes.set p.out p.pos c;
    p.pos <- p.pos + 1

  let next p =
    if p.sep then put p ' ';
    p.sep <- true

  let blit p s =
    let n = String.length s in
    if p.writing then Bytes.blit_string s 0 p.out p.pos n;
    p.pos <- p.pos + n

  (* An atom known to need no quoting. *)
  let bare p s =
    next p;
    blit p s

  let escaped p s =
    String.iter
      (fun c ->
        match escape c with
        | '\000' -> put p c
        | e ->
          put p '\\';
          put p e)
      s

  let atom p s =
    if not (needs_quoting s) then bare p s
    else begin
      next p;
      put p '"';
      escaped p s;
      put p '"'
    end

  (* [mark] is a plain byte, so the atom is never empty and needs quoting
     only for what [s] holds; no [mark ^ s] is built. *)
  let marked p mark s =
    next p;
    if plain s 0 then begin
      put p mark;
      blit p s
    end
    else begin
      put p '"';
      put p mark;
      escaped p s;
      put p '"'
    end

  let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

  (* Written in place: [string_of_int] would allocate, twice. *)
  let int p i =
    if i = min_int then bare p (string_of_int i)
    else begin
      next p;
      let n = abs i in
      let width = digits n + if i < 0 then 1 else 0 in
      if p.writing then begin
        if i < 0 then Bytes.set p.out p.pos '-';
        let rec fill j n =
          Bytes.set p.out j (Char.unsafe_chr (48 + (n mod 10)));
          if n >= 10 then fill (j - 1) (n / 10)
        in
        fill (p.pos + width - 1) n
      end;
      p.pos <- p.pos + width
    end

  (* %h is an exact hexadecimal representation, so float round-trips are
     lossless; plain integers stay readable. *)
  let float p f =
    marked p '~'
      (if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f." f
       else Printf.sprintf "%h" f)

  let list p items =
    next p;
    put p '(';
    p.sep <- false;
    items p;
    put p ')';
    p.sep <- true

  let field p name value =
    list p (fun p ->
        atom p name;
        value p)

  let to_string emit =
    let count = { out = Bytes.empty; writing = false; pos = 0; sep = false } in
    emit count;
    let p =
      { out = Bytes.create count.pos; writing = true; pos = 0; sep = false }
    in
    emit p;
    if p.pos <> count.pos then
      invalid_arg "Sexp.Print.to_string: the writing pass disagrees with the count";
    Bytes.unsafe_to_string p.out
end

module Read = struct
  type t = { s : string; mutable pos : int }

  exception Parse_error of string

  let fail r msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg r.pos))

  (* Whitespace, and [;] comments to the end of the line. *)
  let rec skip r =
    if r.pos < String.length r.s then
      match String.unsafe_get r.s r.pos with
      | ' ' | '\t' | '\n' | '\r' ->
        r.pos <- r.pos + 1;
        skip r
      | ';' ->
        while r.pos < String.length r.s && String.unsafe_get r.s r.pos <> '\n' do
          r.pos <- r.pos + 1
        done;
        skip r
      | _ -> ()

  (* The next significant character, or '\000' at the end of the input
     ([at_eof] tells that from a NUL byte). *)
  let peek r =
    skip r;
    if r.pos < String.length r.s then String.unsafe_get r.s r.pos else '\000'

  let at_eof r = r.pos >= String.length r.s

  let enter r =
    if peek r = '(' then r.pos <- r.pos + 1
    else if at_eof r then fail r "unexpected end of input"
    else fail r "expected '('"

  let leave r =
    if peek r = ')' then r.pos <- r.pos + 1
    else if at_eof r then fail r "unterminated list"
    else fail r "expected ')'"

  (* True at the end of the input too, so that the [leave] after a loop
     on [at_end] reports the unterminated list. *)
  let at_end r =
    match peek r with ')' -> true | _ -> at_eof r

  let is_list r = peek r = '('

  let mark r =
    match peek r with
    | '"' when r.pos + 1 < String.length r.s -> String.unsafe_get r.s (r.pos + 1)
    | c -> c

  let unescape = function 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | c -> c

  (* The quoted atom at [r.pos], less its first [skip] bytes, which the
     caller knows are plain. *)
  let quoted r skip =
    let s = r.s and n = String.length r.s in
    let start = r.pos + 1 + skip in
    let escapes = ref 0 in
    let rec scan i =
      if i >= n then (r.pos <- n; fail r "unterminated string")
      else
        match String.unsafe_get s i with
        | '"' -> i
        | '\\' when i + 1 >= n -> (r.pos <- n; fail r "unterminated escape")
        | '\\' ->
          (match String.unsafe_get s (i + 1) with
           | '"' | '\\' | 'n' | 't' | 'r' ->
             incr escapes;
             scan (i + 2)
           | c -> (r.pos <- i; fail r (Printf.sprintf "bad escape \\%c" c)))
        | _ -> scan (i + 1)
    in
    let stop = scan start in
    r.pos <- stop + 1;
    if !escapes = 0 then String.sub s start (stop - start)
    else begin
      let out = Bytes.create (stop - start - !escapes) in
      let rec fill i j =
        if i < stop then
          match String.unsafe_get s i with
          | '\\' ->
            Bytes.unsafe_set out j (unescape (String.unsafe_get s (i + 1)));
            fill (i + 2) (j + 1)
          | c ->
            Bytes.unsafe_set out j c;
            fill (i + 1) (j + 1)
      in
      fill start 0;
      Bytes.unsafe_to_string out
    end

  (* A bare atom ends at whitespace, a parenthesis, a quote or a comment. *)
  let delimiter = function
    | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' -> true
    | _ -> false

  let bare r skip =
    let s = r.s and n = String.length r.s in
    let start = r.pos in
    let rec scan i = if i >= n || delimiter (String.unsafe_get s i) then i else scan (i + 1) in
    r.pos <- scan start;
    String.sub s (start + skip) (r.pos - start - skip)

  let atom r =
    match peek r with
    | '"' -> quoted r 0
    | '(' -> fail r "expected an atom, got a list"
    | ')' -> fail r "unexpected ')'"
    | _ when at_eof r -> fail r "unexpected end of input"
    | _ -> bare r 0

  let marked r c =
    if mark r <> c then fail r (Printf.sprintf "expected an atom marked %C" c)
    else if peek r = '"' then quoted r 1
    else bare r 1

  (* The next atom must be [word]; unless it is quoted, nothing is
     allocated. *)
  let expect r word =
    let n = String.length word in
    if peek r = '"' then begin
      if not (String.equal (quoted r 0) word) then
        fail r (Printf.sprintf "expected %S" word)
    end
    else begin
      let s = r.s and p = r.pos in
      let rec same i =
        i = n || (String.unsafe_get s (p + i) = String.unsafe_get word i && same (i + 1))
      in
      if
        p + n <= String.length s
        && (p + n = String.length s || delimiter (String.unsafe_get s (p + n)))
        && same 0
      then r.pos <- p + n
      else fail r (Printf.sprintf "expected %S" word)
    end

  let int r =
    let s = atom r in
    match int_of_string_opt s with
    | Some i -> i
    | None -> fail r (Printf.sprintf "not an int: %S" s)

  let float r =
    let s = marked r '~' in
    match float_of_string_opt s with
    | Some f -> f
    | None -> fail r (Printf.sprintf "not a float: %S" s)

  let list r item =
    enter r;
    let rec go acc = if at_end r then (leave r; List.rev acc) else go (item r :: acc) in
    go []

  let field r name value =
    enter r;
    expect r name;
    let v = value r in
    leave r;
    v

  let of_string read s =
    let r = { s; pos = 0 } in
    match
      let v = read r in
      skip r;
      if not (at_eof r) then fail r "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error msg -> Error msg
end

let to_string sexp =
  let rec go p = function
    | Atom s -> Print.atom p s
    | List xs -> Print.list p (fun p -> List.iter (go p) xs)
  in
  Print.to_string (fun p -> go p sexp)

let of_string =
  let rec go r =
    if Read.is_list r then List (Read.list r go) else Atom (Read.atom r)
  in
  Read.of_string go

let to_int = function
  | Atom s ->
    (match int_of_string_opt s with
     | Some i -> Ok i
     | None -> Error (Printf.sprintf "not an int: %S" s))
  | List _ -> Error "expected int, got list"

let map_result f xs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (match f x with Ok y -> go (y :: acc) rest | Error _ as e -> e)
  in
  go [] xs
