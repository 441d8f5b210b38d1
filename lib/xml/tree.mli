(** Node-labeled ordered XML trees in an append-only arena.

    WebLab documents (Definition 1 of the paper) are XML trees in which a
    subset of nodes — the {e resources} — carry a unique URI.  Because the
    WebLab execution model only ever {e appends} fragments (Definition 2),
    the arena representation gives every node a stable integer identifier
    for its whole lifetime, which in turn makes document states, diffs and
    provenance links cheap to represent.

    Attribute conventions (matching the paper's encoding):
    - ["id"]: the URI assigned by the [uri] partial function;
    - ["s"]: name of the service whose call created the resource;
    - ["t"]: timestamp of that service call.

    In addition every node records the {e creation timestamp} of the service
    call that added it, which is what document states are carved out of. *)

type t
(** A mutable, append-only XML document. *)

type node = int
(** Nodes are arena indices, stable across document states. *)

type timestamp = int

val no_node : node
(** A sentinel ([-1]) used where a node may be absent (e.g. the parent of
    the root). *)

(** {1 Construction} *)

val create : unit -> t
(** An empty document (no root yet). *)

val new_element :
  ?attrs:(string * string) list -> t -> parent:node -> string -> node
(** [new_element t ~parent name] appends a fresh element as last child of
    [parent].  Pass [~parent:no_node] to install the root (allowed once).
    @raise Invalid_argument if a second root is created. *)

val new_text : t -> parent:node -> string -> node
(** Appends a text node as last child of [parent]. *)

(** {1 Accessors} *)

val root : t -> node
(** @raise Invalid_argument on an empty document. *)

val has_root : t -> bool

val size : t -> int
(** Number of nodes ever allocated (= upper bound for node ids + 1). *)

val compact : t -> unit
(** Trim the arena's growth slack: every internal array shrinks to its
    live prefix (ids, links and the rollback contract are untouched;
    later appends grow again).  Call once after bulk ingest on a
    document that will now live for a long time — frozen documents
    otherwise keep up to 2x their footprint in doubling headroom. *)

val is_element : t -> node -> bool
val is_text : t -> node -> bool

val name : t -> node -> string
(** Element name; [""] for text nodes. *)

val text : t -> node -> string
(** Text content of a text node; [""] for elements. *)

val parent : t -> node -> node
(** [no_node] for the root. *)

val children : t -> node -> node list
(** In document order. *)

val first_child : t -> node -> node
(** [no_node] for childless nodes.  Direct structure-of-arrays link:
    sibling walks via {!next_sibling} allocate nothing. *)

val last_child : t -> node -> node

val next_sibling : t -> node -> node
(** [no_node] for a last child (and the root). *)

val iter_children : t -> node -> (node -> unit) -> unit
(** Left-to-right, without materializing the child list. *)

val attrs : t -> node -> (string * string) list

val for_all_attrs : t -> node -> (string -> string -> bool) -> bool
(** [List.for_all] over {!attrs}, in the same order, without building
    the list. *)

val attr : t -> node -> string -> string option
val set_attr : t -> node -> string -> string -> unit

val set_text : t -> node -> string -> unit
(** Replace the content of a text node.  Only meant for services building a
    fragment before it is committed; the orchestrator checks that committed
    nodes are never altered. *)

(** {1 Resources, labels, timestamps} *)

val uri : t -> node -> string option
(** The ["id"] attribute: the URI of a resource node, if any. *)

val set_uri : t -> node -> string -> unit

val is_resource : t -> node -> bool

val fresh_uri : t -> string
(** A URI of the form ["r<k>"] not yet used in the document, probed from
    [k = ]{!size} against the document's URI table (see
    {!find_resource}).  The URI is claimed in the table at allocation
    time, so a later allocation never returns it again, even before a
    node carries it; a claim resolves to no node, and a {!restore} past
    it releases it.  Safe to call from several domains at once. *)

val resources : t -> node list
(** All resource nodes, in document order. *)

val find_resource : t -> string -> node option
(** Look a resource up by URI, in O(1).  The document keeps one table
    from URI to the first node that carried it, updated by every ["id"]
    write ({!new_element} [~attrs], {!set_attr}, {!set_uri}) and rolled
    back by {!restore}.  Invariant: every URI some node carries resolves
    to its first carrier, and no other URI resolves; when that node
    drops the URI, the next carrier in arena order takes it over.  The
    orchestrator rejects a call whose new or promoted resource is not
    the node its URI resolves to.  Not concurrently with writes to the
    document. *)

val created : t -> node -> timestamp
(** Creation timestamp (0 for nodes of the initial document). *)

val set_created : t -> node -> timestamp -> unit

val service_label : t -> node -> (string * timestamp) option
(** The [(@s, @t)] service-call label of a resource node, if present. *)

val set_service_label : t -> node -> string -> timestamp -> unit

(** {1 Traversal} *)

val iter_subtree : t -> node -> (node -> unit) -> unit
(** Pre-order traversal of the subtree rooted at the given node (inclusive). *)

val fold_subtree : t -> node -> init:'a -> f:('a -> node -> 'a) -> 'a

val descendants : t -> node -> node list
(** Strict descendants, pre-order. *)

val descendant_or_self : t -> node -> node list

val ancestors : t -> node -> node list
(** Strict ancestors, nearest first. *)

val is_ancestor : t -> ancestor:node -> node -> bool
(** Strict. *)

val string_value : t -> node -> string
(** Concatenation of all text descendants, document order (XPath
    string-value of an element). *)

val equal_subtree : t -> node -> t -> node -> bool
(** Structural equality of two subtrees: same kinds, names, texts,
    attribute sets and child sequences. *)

(** {1 Rollback}

    These exist solely so the orchestrator can undo a {e failed} call,
    restoring the exact last-committed state.  While a checkpoint is
    open, the setters above log the word they overwrite on nodes older
    than the innermost open checkpoint; appends need no log.  The URI
    table logs every binding it changes, appends included.  Checkpoints
    nest.  A restored or committed checkpoint is closed, and every
    operation below refuses it with [Invalid_argument]: no call can roll
    committed history back. *)

val generation : t -> int
(** Bumped on every {!restore}.  Size-stamped caches must also compare
    generations: a restore followed by new appends can return the arena
    to a previously seen size. *)

type checkpoint
(** An open rollback point: size, attribute count and undo log at
    {!checkpoint} time.  Taking one is O(1). *)

val checkpoint : t -> checkpoint

val commit : t -> checkpoint -> unit
(** Close the checkpoint, and any opened after it, keeping every change;
    with none left open the undo log is dropped. *)

val restore : t -> checkpoint -> unit
(** Undo the log back to the checkpoint, drop the nodes appended since
    and close it as {!commit} does: bit-identical to the state at
    {!checkpoint} time. *)

val changed_since : t -> checkpoint -> node list
(** The checkpointed nodes written in place since the checkpoint, in id
    order, each once: the only ones whose text, attributes or timestamps
    can differ from it (element names never change in place). *)

val text_at : t -> checkpoint -> node -> string
val attrs_at : t -> checkpoint -> node -> (string * string) list
(** What a checkpointed node held at {!checkpoint} time.
    @raise Invalid_argument past the checkpoint's size. *)

val uri_time : t -> node -> timestamp
(** When the node became a resource: its creation timestamp, unless a later
    service call promoted it by adding the identifier (the node-3-to-r3
    promotion of Figure 4). *)

val set_uri_time : t -> node -> timestamp -> unit
