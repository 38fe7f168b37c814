(** Minimal s-expressions, used as the on-the-wire / on-disk codec for the
    data model, execution logs and transaction records (no JSON library is
    vendored; s-expressions parse fast and print deterministically).

    The codecs of the data model and the records print with {!Print} and
    read with {!Read}, straight between their values and the string:
    neither builds a {!t}.  {!t} is for free-form documents (goal files);
    {!to_string} and {!of_string} are themselves clients of {!Print} and
    {!Read}, so there is one printer and one reader. *)

type t = Atom of string | List of t list

(** One-line rendering: an item follows its neighbour after one space, and
    an atom is quoted when it is empty or holds whitespace, a parenthesis,
    a quote, a backslash, [;], a control byte or DEL; inside the quotes a
    quote, a backslash, a newline, a tab or a return is escaped with a
    backslash. *)
module Print : sig
  type t

  (** [to_string emit] runs [emit] twice: once to count the bytes, once
      to fill a string of exactly that size.  [emit] must emit the same
      items both times.
      @raise Invalid_argument when the two passes disagree. *)
  val to_string : (t -> unit) -> string

  val atom : t -> string -> unit

  (** [marked p mark s] emits the one atom [mark] then [s], quoted when [s]
      needs it; [mark] must be a byte that needs no quoting.  A decoder
      tells such atoms apart by their first byte ({!Read.mark}). *)
  val marked : t -> char -> string -> unit

  (** Decimal digits, with a leading [-] when negative. *)
  val int : t -> int -> unit

  (** Marked with [~]: integral floats below 1e15 as [~3.]; others in
      exact [%h] hexadecimal, so that a float reads back equal. *)
  val float : t -> float -> unit

  (** [list p items] emits a parenthesised list of what [items] emits. *)
  val list : t -> (t -> unit) -> unit

  (** [field p name value] emits [(name <value>)]. *)
  val field : t -> string -> (t -> unit) -> unit
end

(** A cursor over a string.  Whitespace and [;] line comments are skipped
    between items; a bare atom ends at whitespace, a parenthesis, a quote
    or [;].  A decoder raises through {!fail}, and {!of_string} turns it
    into an [Error]. *)
module Read : sig
  type t

  (** [of_string read s] runs [read] over [s], which must hold nothing
      after it but whitespace and comments; a malformed input is an
      [Error] naming its offset, and never an exception. *)
  val of_string : (t -> 'a) -> string -> ('a, string) result

  (** Consume an opening parenthesis. *)
  val enter : t -> unit

  (** Consume a closing parenthesis. *)
  val leave : t -> unit

  (** The list is at its closing parenthesis (or the input has ended). *)
  val at_end : t -> bool

  val atom : t -> string

  (** The first byte of the next item, consuming nothing: ['('] for a list,
      [')'] at the end of one, ['\000'] at the end of the input, and for
      an atom its own first byte (inside the quotes of a quoted one). *)
  val mark : t -> char

  (** [marked r mark] reads an atom that {!Print.marked} wrote with
      [mark], and gives it without the mark. *)
  val marked : t -> char -> string

  (** [expect r word] consumes the atom [word], or fails. *)
  val expect : t -> string -> unit

  val int : t -> int

  (** A {!Print.float} atom. *)
  val float : t -> float

  (** [list r item] reads a parenthesised list, [item] for each element. *)
  val list : t -> (t -> 'a) -> 'a list

  (** [field r name value] reads [(name <value>)]. *)
  val field : t -> string -> (t -> 'a) -> 'a

  (** Abandon the decode with [msg] and the current offset. *)
  val fail : t -> string -> 'a
end

val equal : t -> t -> bool

(** Deterministic single-line rendering, as {!Print}. *)
val to_string : t -> string

(** Inverse of {!to_string}; also accepts surrounding whitespace and [;]
    line comments (goal files and scenarios annotate themselves). *)
val of_string : string -> (t, string) result

(** {1 Construction and destruction helpers} *)

val atom : string -> t
val of_int : int -> t
val to_int : t -> (int, string) result

(** [map_result f xs] decodes every element with [f], in order; the
    first error wins. *)
val map_result : ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
