(** The hierarchical resource data model: a persistent (immutable) tree of
    typed nodes with attributes.

    Persistence is what makes the logical layer cheap to checkpoint and roll
    back: the controller keeps the pre-transaction tree value and restores
    it in O(1) on abort. *)

module Smap : Map.S with type key = string

(** A node's attributes are two parallel arrays: [names] in ascending
    order with no repeats, and [values.(i)] bound to [names.(i)].  A kind
    fixes its attribute names, so like nodes hold one [names] array between
    them: an update that keeps the names keeps the array, a node placed
    under a parent takes the array of the sibling before it when that is of
    its kind with equal names, a {!maker} gives every node it makes one
    array, and within one {!read} every node of a layout takes the
    layout's array.  No table outlives the call that made it.  The type is
    private so that the invariant holds; read attributes with {!attr} and
    {!attrs}. *)
type node = private {
  kind : string;  (** entity type, e.g. ["vmHost"], ["vm"], ["image"] *)
  names : string array;
  values : Value.t array;
  children : node Smap.t;
}

type t = node

type error =
  | Missing of Path.t      (** path does not exist *)
  | Exists of Path.t       (** insert target already exists *)
  | No_parent of Path.t    (** insert target's parent does not exist *)
  | Root_immutable         (** attempt to remove or replace the root *)

val error_to_string : error -> string

val empty : t

(** Structural equality; physically equal nodes and name arrays compare
    without a walk. *)
val equal : t -> t -> bool

(** {1 Attributes of a node} *)

(** [attr node name] is the value bound to [name]: a scan of the node's
    few names. *)
val attr : node -> string -> Value.t option

(** Every binding, in ascending name order (the encoded order). *)
val attrs : node -> (string * Value.t) list

(** Same attribute names and values. *)
val attrs_equal : node -> node -> bool

(** {1 Reading} *)

val find : t -> Path.t -> node option
val mem : t -> Path.t -> bool
val get_attr : t -> Path.t -> string -> Value.t option
val kind : t -> Path.t -> string option

(** Children of the node at [path], in name order. *)
val children : t -> Path.t -> (string * node) list option

(** Child names only. *)
val child_names : t -> Path.t -> string list option

(** Preorder fold over every node (including the root, path = []). *)
val fold : (Path.t -> node -> 'a -> 'a) -> t -> 'a -> 'a

(** Number of nodes, root excluded. *)
val size : t -> int

(** {1 Updating — all persistent} *)

val insert :
  t -> Path.t -> kind:string -> ?attrs:(string * Value.t) list -> unit ->
  (t, error) result

(** Removes the node and its whole subtree. *)
val remove : t -> Path.t -> (t, error) result

(** Copy-on-write: the node gets a fresh values array and, when [name]
    is already bound, keeps its names array. *)
val set_attr : t -> Path.t -> string -> Value.t -> (t, error) result

val remove_attr : t -> Path.t -> string -> (t, error) result
val set_kind : t -> Path.t -> string -> (t, error) result

(** [replace_subtree t path node] substitutes the node (with children) at
    [path]; used by reload to adopt freshly retrieved physical state. *)
val replace_subtree : t -> Path.t -> node -> (t, error) result

(** [subtree t path] is the node at [path] viewed as a standalone tree. *)
val subtree : t -> Path.t -> (node, error) result

(** {1 Codec} *)

(** Positional: [(<layouts> <node>)].  The layouts [((<kind> <name>...)...)]
    are the distinct kinds and attribute names of the subtree, each once,
    in first-use (preorder) order; a node is
    [(<layout index> <value>... <child name> <child node>...)], its values
    in its layout's name order and its children in name order.  An
    [image] node reads [(5 f 10240 t)]. *)
val print : Sexp.Print.t -> node -> unit

(** Every node takes its kind and names array from the layout table, and
    equal [Str], [Int] and [Bool] values are shared within the one call. *)
val read : Sexp.Read.t -> node

val to_string : t -> string
val of_string : string -> (t, string) result

(** Render as an indented outline (for examples and debugging). *)
val pp : Format.formatter -> t -> unit

(** Build a node value directly (for {!replace_subtree} and tests).  Of a
    name bound twice in [attrs], the last binding wins. *)
val make_node :
  kind:string -> ?attrs:(string * Value.t) list ->
  ?children:(string * node) list -> unit -> node

(** [maker ~kind names values] is a childless node of [kind] that binds
    [names] to [values] in order.  Partially applied, it declares a kind's
    layout once: every node it makes holds one names array, where
    {!make_node} allocates one per node.
    @raise Invalid_argument on a repeated name, or when [values] and
    [names] differ in length. *)
val maker : kind:string -> string list -> Value.t list -> node

(** [node] with its children replaced. *)
val with_children : node -> node Smap.t -> node
