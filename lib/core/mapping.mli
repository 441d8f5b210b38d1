(** Application of mapping rules — Definitions 8 and 9.

    {v M(d, d') = π(in,out)( ρ(r→in) R_φS(d)  ⋈  ρ(r→out) R_φT(d') )
       M(c)     = M(d_{i-1}, d_i) ⋉ out(c) v}

    Skolem rules (§5) are recognized by an [f(…) = @id] predicate on the
    target's final step: the ground term f(v̄) becomes the identifier of
    the produced entity — computed per {e joined} row, since its arguments
    may refer to source bindings — and the matched XML nodes are reported
    as the entity's members. *)

open Weblab_xml
open Weblab_xpath
open Weblab_relalg
open Weblab_workflow

type application = {
  links : (string * string) list;
      (** (out, in) pairs: [out] was derived from [in].  Self-links are
          dropped (Definition 3 requires a DAG). *)
  members : (string * string) list;
      (** (Skolem entity, member resource) pairs; empty for plain rules. *)
}

val skolem_id_of_target : Ast.pattern -> (string * Ast.operand list) option
(** The [f(…) = @id] predicate of the final step, if any. *)

val is_skolem_rule : Rule.t -> bool

val resource_at : Tree.t -> Tree.timestamp -> Tree.node -> bool
(** [resource_at doc t n]: whether [n], if it has an identifier, is a
    resource at call [t].  A node promoted by a later call
    ({!Tree.uri_time} past its creation) is one only from that call on.
    The post-hoc backends, which evaluate every call over the final
    document, pass this as the [resource] filter. *)

val source_table :
  ?guards:Eval.guards ->
  ?resource:(Tree.node -> bool) ->
  ?index:Index.t ->
  Tree.t ->
  Rule.t ->
  Table.t
(** ρ(r→in) R{_φS}: the source embeddings with the result column renamed
    to ["in"], projected to the join-relevant columns.  [resource] and
    [index] are handed to {!Eval.eval} (the document index fast path). *)

val target_table :
  ?guards:Eval.guards ->
  ?resource:(Tree.node -> bool) ->
  ?index:Index.t ->
  Tree.t ->
  Rule.t ->
  Table.t
(** ρ(r→out) R{_φT}, for non-Skolem rules.
    @raise Invalid_argument on a Skolem rule. *)

val join_table : Rule.t -> Doc_state.t -> Doc_state.t -> Table.t
(** The joined table with the shared variables still visible — the tables
    of Example 6. *)

val links_of_table : Table.t -> (string * string) list
(** Extract (out, in) links from a joined table, dropping self-links. *)

val apply_states :
  ?index:Index.t ->
  ?resource:(Tree.node -> bool) ->
  Rule.t ->
  Doc_state.t ->
  Doc_state.t ->
  application
(** Definition 8: M(d, d'), i.e. {!apply_guarded} with
    [Doc_state.visible d] as the source guard.  [index] is the caller's
    index over the (shared) document: parallel inference builds it once
    up front and hands it to every worker; without one, evaluation
    traverses.  [resource] restricts which identified nodes count as
    resources (see {!resource_at}). *)

val apply_guarded :
  ?index:Index.t ->
  ?resource:(Tree.node -> bool) ->
  Rule.t ->
  doc:Tree.t ->
  source_visible:(Tree.node -> bool) ->
  target_state:Doc_state.t ->
  application
(** Definition 8 with an explicit source-side visibility predicate over
    [doc]; the target side is [target_state].  This is the hook for
    non-sequential control flow (§8), where "existed before the call" is
    a happened-before relation rather than a timestamp comparison. *)

val restrict_to_generated :
  application -> generated:(string -> bool) -> application
(** Keep the links whose produced endpoint satisfies [generated]; a Skolem
    entity survives when at least one member does. *)

val generated_by : Tree.t -> Trace.call -> string -> bool
(** Definition 9's out(c): [generated_by doc c u] holds when [u] names a
    node of [doc] created by call [c]. *)

val apply_call :
  ?source_visible:(Tree.node -> bool) ->
  ?index:Index.t ->
  Rule.t ->
  doc:Tree.t ->
  call:Trace.call ->
  application
(** Definition 9: M(c), on the states reconstructed from [doc] (or with
    the supplied source visibility), where a node promoted after the call
    is not yet a resource ({!resource_at}).  [index] as in
    {!apply_states}. *)
