(** Structural XML diff under insert-only edits — the paper's "standard
    XML-diff service" (§6), used by the Recorder to identify the fragments
    a black-box service added.

    Under append semantics the new document must contain the old one
    (Definition 1's ⊑{_uri}): the old children of every matched element
    appear, in order, as a subsequence of the new children.  Matching is
    greedy in document order; it is exact whenever services append
    fragments (the WebLab contract). *)

type edit = {
  new_node : Tree.node;       (** root of an added fragment, in the new doc *)
  parent_in_new : Tree.node;  (** its parent (a matched node) *)
}

type result = {
  added : edit list;                       (** in document order *)
  matched : (Tree.node * Tree.node) list;  (** (old node, new node) pairs *)
}

exception Not_contained of string
(** The new document does not contain the old one: some existing content
    was modified, removed or reordered — an append-semantics violation. *)

val diff : old_doc:Tree.t -> new_doc:Tree.t -> result
(** The added fragments and the correspondence between retained nodes.
    Attribute additions on matched nodes are tolerated (URI promotion and
    the Recorder's own labels); modifications and removals are not.
    @raise Not_contained on an append-semantics violation. *)

val added : old_doc:Tree.t -> new_doc:Tree.t -> edit list
(** [diff] restricted to its [added] component. *)

val contains : old_doc:Tree.t -> new_doc:Tree.t -> bool
(** Non-raising containment check. *)

type resume
(** What a graft leaves for the next one: the accepted state's
    {!Xml_text.t} (for a JSON string body, the request line holding it,
    not a copy) and one mark per end tag of a child of the root, taken
    while nothing had been added or promoted yet, each holding the raw
    offset just past the bytes of the tag's ['>'], the parser's position
    there and the arena node matched.  A document whose root has no URI
    gets no marks. *)

val graft :
  ?from:resume -> doc:Tree.t -> Xml_text.t -> Tree.node list * resume
(** [graft ~doc src] appends to [doc] what the next state [src] added,
    straight from the parser's events: [diff]'s embedding, decided event
    by event against the live arena, with no second arena and no copy.
    A JSON string body is unescaped straight into the parser, plain
    runs in place.  URI promotions of matched nodes are adopted first,
    in [diff]'s pair order, then the added fragments are appended in
    document order, node for node as {!Xml_parser.parse} and a deep copy
    would build them.  Returns the promoted nodes, the appended ones
    being the arena's new tail, and the record the next graft may resume
    from.  Nothing is written unless the whole state parses and contains
    [doc].

    [~from] is the record of the last graft that committed on [doc]:
    when [src] is of the same kind (plain or escaped), the parse starts
    just past the last mark inside the prefix [src]'s raw bytes share
    with that state's, with the root's cursor on the next sibling of the
    node matched there, and the result, errors and positions included,
    is the full graft's.  This holds as long as [doc] changed since that
    graft only by its appends and by writes to nodes it appended or
    promoted; any other write, or a rollback past that graft, voids the
    record.  Counters, added once the whole text is fed: [diff.graft.bytes]
    adds the state's decoded length, [diff.graft.parsed] the decoded
    bytes fed to the parser.
    @raise Xml_parser.Error on malformed input (before any containment
    verdict).
    @raise Not_contained on an append-semantics violation. *)

val resume_offset : resume -> string -> int -> int
(** [resume_offset r s off] is where a graft from [r] of the JSON string
    body starting at [s.[off]] starts reading, relative to [off]: the
    raw offset of the last mark inside the prefix that [s] from [off]
    shares with [r]'s state, or 0 when there is none or [r]'s state is
    plain text.  Bytes before it need no scan: they repeat a body that
    was validated when it was read.  The record remembers the answer,
    and a graft from it of the body at [s.[off]] reuses it instead of
    comparing again; it holds [s] until that graft or the next probe. *)
