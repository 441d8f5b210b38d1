(** Per-document evaluation index.

    A snapshot of derived structures over a {!Tree.t}, built by one
    traversal of the finished document ({!build}; parsing never indexes)
    and read by the evaluator's descendant steps:

    - {b nodes by label}: element name → nodes, document order — turns a
      [//Name] step into a lookup;
    - {b pre/post-order intervals}: [descendant(a, n)] becomes two integer
      comparisons, so a descendant step from an inner context filters a
      label list instead of walking the subtree;
    - {b subtree sizes}: what tells the evaluator when walking the subtree
      is cheaper than filtering the label list.

    Nothing else is indexed.  Attributes are not: the guards the §4
    rewriting appends ([@s = s], [@t = t]) are checked on the candidates
    a step already produced, and the document resolves URIs itself
    ({!Tree.find_resource}).

    Every index has one owner: whoever evaluates patterns builds the
    index it uses (once per evaluation pass over a frozen document) or is
    handed one; nothing caches indexes behind the caller's back.  The
    index is stamped with the arena size it covers: nodes appended later
    are not covered, and {!valid_for} turns false, so evaluators fall back
    to the reference traversal rather than trust it.  An owner can catch
    up in place with {!extend}, which keys only the appended nodes but
    re-merges every label posting they land in (see its cost below).

    Pre/post ranks are {e gapped} order keys rather than dense ranks:
    only their relative order is observable (through {!strictly_below} /
    {!below_or_self}), and the gaps are what let an appended fragment be
    keyed inside its parent's interval without renumbering the rest of
    the document. *)

type t

val build : Tree.t -> t
(** One full traversal: O(nodes) time and space. *)

val extend : t -> Tree.t -> bool
(** [extend t doc] catches the index up with the arena in place: the
    appended tail from the index's stamp to [size doc] is keyed in id
    order (appends are always last-child, so parents and preceding
    siblings are already keyed; each node is keyed in O(1) inside the
    parent's free band, after the parent's last keyed child), subtree
    sizes are bumped along the ancestor chains, and each touched label
    posting receives its new nodes in one sorted merge.  A URI promotion
    needs nothing: it only adds attributes, which are not indexed.

    Cost, for k new nodes: O(k log k + depth·k), plus, for each touched
    posting, the entries that sit past its first insertion point — all
    of them move.  Appends under the last top-level element land at the
    end of their postings; appends mid-document shift the tails of every
    posting they touch, so one extension can cost more than its k.

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

(** {1 Label lookups}

    All node lists are in document order. *)

val nodes_with_label : t -> string -> Tree.node list
(** Elements named [label]. *)

val label_count : t -> string -> int
(** [List.length (nodes_with_label t l)], O(1). *)

(** {1 Structural tests (pre/post-order intervals)} *)

val strictly_below : t -> ancestor:Tree.node -> Tree.node -> bool
(** [n] is a proper descendant of [ancestor]: two integer comparisons. *)

val below_or_self : t -> ancestor:Tree.node -> Tree.node -> bool

val subtree_size : t -> Tree.node -> int
(** Number of nodes in the subtree rooted at [n] (including [n]). *)
