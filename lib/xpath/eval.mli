(** Evaluation of XPath patterns over WebLab document states.

    Evaluating a pattern φ(x̄) over a document state d computes all
    {e embeddings} of the associated tree pattern into d (Definition 6) and
    returns the set of binding tuples x̄/ε as a {!Weblab_relalg.Table.t}
    (Definition 7).

    The result table has columns:
    - ["node"]: the arena id of the node matched by the final step;
    - ["r"]: the URI of that node (the implicit [$r := @id] of
      Definition 4, condition 3) — embeddings whose final node carries no
      URI are discarded unless [require_uri] is [false];
    - one column per binding variable of the pattern, in binding order. *)

open Weblab_xml
open Weblab_relalg

type guards = {
  visible : Tree.node -> bool;
      (** Restricts matching to a document state: every node an embedding
          touches (steps, predicate paths, positional contexts) must
          satisfy this. *)
  env : (string * Value.t) list;
      (** Initial variable environment (free variables of the pattern). *)
}

val no_guards : guards

val state_guards : Doc_state.t -> guards
(** Visibility of the given document state, empty environment. *)

val eval :
  ?require_uri:bool ->
  ?resource:(Tree.node -> bool) ->
  ?guards:guards ->
  ?index:Index.t ->
  Tree.t ->
  Ast.pattern ->
  Table.t
(** [eval doc φ] computes R_φ(d).  [require_uri] defaults to [true].
    A node counts as a resource only where [resource] holds (default:
    wherever it has an identifier); elsewhere its identifier is ignored.

    Given a [~index] that is {!Weblab_xml.Index.valid_for} [doc],
    candidate nodes of descendant steps and of indexed-attribute guards
    ([@id], [@s], [@t] equalities — what the §4 rewriting injects) are
    served from it instead of tree traversals.  Without one — or with a
    stale one (the document grew or rolled back since it was built),
    which is never trusted — every step runs the reference traversal.
    The result is identical, rows {e and} order, either way; property
    tests enforce it. *)

val eval_state : ?require_uri:bool -> Doc_state.t -> Ast.pattern -> Table.t
(** [eval_state d φ] = [eval ~guards:(state_guards d) (Doc_state.doc d) φ]. *)

val delta_localizable : Ast.pattern -> bool
(** Whether the pattern can be delta-restricted: every step uses a
    downward axis (child, descendant, descendant-or-self, self) and no
    step carries a position-sensitive predicate.  For such patterns every
    node of an embedding's step chain is an ancestor-or-self of the final
    node, so embeddings ending in an appended fragment can be enumerated
    by pruning every step's candidates ({!prefix_step}'s [keep]) to the
    fragment's ancestor-or-self closure. *)

val append_stable : Ast.pattern -> bool
(** Whether the pattern's rows are stable under appends: it is
    {!delta_localizable} and its predicates read only the context node's
    attributes — no positions, relative paths, counts or string-values,
    whose truth can flip when descendants are appended.  For such a
    pattern, a row once produced stays a row as long as no attribute of
    a committed node changes (URI promotion is the one event that does),
    and the rows visible in a document state d_t are exactly those whose
    final node was created in d_t. *)

val matching_nodes :
  ?guards:guards -> Tree.t -> Ast.pattern -> Tree.node list
(** Nodes matched by the final step, regardless of URIs; distinct, in
    first-match order. *)

(** {1 Shared-prefix evaluation}

    Hooks for the fused rule-set compiler ({!Weblab_compile}): a whole
    rulebook's patterns are evaluated against one document state with
    the work of common step prefixes shared.  A {!contexts} value is the
    evaluator's intermediate state after a prefix of steps; it can be
    extended one step at a time ({!prefix_step}) and branched into
    several continuations without re-running the shared steps.

    For every pattern, folding {!prefix_step} over its steps starting
    from {!prefix_start} and finishing with {!prefix_table} produces a
    table bit-identical — rows {e and} order — to {!eval} with the same
    guards and index (it runs the very same step/table code). *)

type contexts = (Tree.node * (string * Value.t) list) list
(** An evaluation front: the surviving (node, environment) pairs after a
    prefix of a pattern's steps, in document-traversal order.  The
    initial front is the virtual document node with the guards'
    environment. *)

val prefix_start : guards -> contexts

val prefix_step :
  ?index:Index.t ->
  ?keep:(Tree.node -> bool) ->
  guards:guards ->
  Tree.t ->
  contexts ->
  Ast.step ->
  contexts
(** Extend a front by one step, serving candidates from a valid index
    where sound (same rules as {!eval}: no index or a stale one means the
    reference traversal).
    [keep] prunes the step's candidates before its predicates run; it
    is sound only for {!delta_localizable} patterns. *)

val prefix_table :
  ?require_uri:bool -> Tree.t -> Ast.pattern -> contexts -> Table.t
(** Build the pattern's result table from its final front.  [pattern]
    supplies the column set; the front must be the fold of the pattern's
    steps.  [require_uri] defaults to [true], as in {!eval}. *)
