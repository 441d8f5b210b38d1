(** Per-document evaluation index.

    A snapshot of derived structures over a {!Tree.t}, built by one
    traversal of the finished document ({!build}; parsing never indexes)
    and amortized over the many pattern evaluations of post-hoc
    provenance inference:

    - {b elements}: every element, document order;
    - {b nodes by label}: element name → nodes, document order — turns
      [//Name] steps into lookups;
    - {b nodes by attribute}: [(attr, value)] → nodes, document order,
      for the service labels [@s] and [@t] — turns the guards the §4
      rewriting injects into lookups.  URIs are not indexed here: the
      document resolves them itself ({!Tree.find_resource});
    - {b pre/post-order intervals}: [descendant(a, n)] becomes two integer
      comparisons, so descendant steps from an inner context filter a
      label list instead of walking the subtree.

    Every index has one owner: whoever evaluates patterns builds the
    index it uses (once per evaluation pass over a frozen document) or is
    handed one; nothing caches indexes behind the caller's back.  The
    index is stamped with the arena size it covers: nodes appended later
    are not covered, and {!valid_for} turns false, so evaluators fall back
    to the reference traversal rather than trust it.  An owner can catch
    up in place with {!extend} (amortized O(appended nodes), not
    O(document)).

    Pre/post ranks are {e gapped} order keys rather than dense ranks:
    only their relative order is observable (through {!strictly_below} /
    {!below_or_self}), and the gaps are what let an appended fragment be
    keyed inside its parent's interval without renumbering the rest of
    the document. *)

type t

val build : Tree.t -> t
(** One full traversal: O(nodes) time and space. *)

val extend : t -> Tree.t -> promoted:Tree.node list -> bool
(** [extend t doc ~promoted] catches the index up with the arena in
    place: the appended tail [stamp t, size doc) is keyed in id order
    (appends are always last-child, so parents and preceding siblings are
    already keyed; each node is keyed in O(1) inside the parent's free
    band, after the parent's last keyed child), subtree sizes are updated
    along the ancestor chains, and each touched posting receives its new
    nodes in one sorted merge.  [promoted] lists committed nodes that
    gained attributes since they were indexed (the service label of a
    URI promotion): their
    missing attribute postings join the same merges — the tail cannot
    see them.  Cost: O(k log k + depth·k) for k new nodes, plus one pass
    over each posting a new node lands inside of rather than after.

    Returns [true] when the index now satisfies [valid_for t doc].
    Returns [false] — and the caller must fall back to {!build} — when:
    - the index was built from a different arena, or
    - the document generation changed (a {!Tree.restore} rollback:
      in-place postings may reference discarded nodes, so rollbacks
      always invalidate), or
    - a key band is exhausted (too many appends under one parent since
      the last full build; the rebuild restores uniform gaps, so its cost
      is amortized over the appends that consumed the band).
    After a [false] the index refuses further extension and [valid_for]
    stays false; it must be discarded.

    Extension mutates the index: only its owner may extend it, and not
    while other domains read it. *)

val valid_for : t -> Tree.t -> bool
(** [valid_for idx doc]: [idx] was built from this very [doc], no node
    has been appended since, and no rollback happened since. *)

val stamp : t -> int
(** The arena size the index was built at. *)

(** {1 Label and attribute lookups}

    All node lists are in document order. *)

val nodes_with_label : t -> string -> Tree.node list
(** Elements named [label]. *)

val label_count : t -> string -> int
(** [List.length (nodes_with_label t l)], O(1). *)

val elements : t -> Tree.node list
(** Every element node. *)

val indexed_attrs : string list
(** The attribute names covered by {!nodes_with_attr}: [["s"; "t"]] —
    the service labels of the provenance model.  An [@id = 'lit']
    predicate is not narrowed by the index. *)

val attr_indexed : string -> bool

val nodes_with_attr : t -> string -> string -> Tree.node list
(** [nodes_with_attr t a v]: elements with [a="v"], for [a] in
    {!indexed_attrs} ([[]] for any other attribute). *)

(** {1 Structural tests (pre/post-order intervals)} *)

val strictly_below : t -> ancestor:Tree.node -> Tree.node -> bool
(** [n] is a proper descendant of [ancestor]: two integer comparisons. *)

val below_or_self : t -> ancestor:Tree.node -> Tree.node -> bool

val subtree_size : t -> Tree.node -> int
(** Number of nodes in the subtree rooted at [n] (including [n]). *)
