(** The evaluation strategies for mapping rules (§4 and §6).

    - {b Online}: rules are evaluated during the workflow execution, on
      the document states before and after each call — Definition 9
      applied literally.  The paper lists its drawbacks (invasive, slows
      the workflow, no cross-call optimization); here it doubles as the
      reference implementation the other backends are checked against.
    - {b [`Replay]}: post-hoc, per call, on states reconstructed from the
      final document (cheap: states are timestamp-filtered views).
    - {b [`Rewrite]}: post-hoc, single-pass — the §4 rewriting: each
      rule's target pattern gains the [@s] service constraint and is
      evaluated {e once} on the final document for all calls of the
      service; rows are grouped by the matched resource's timestamp and
      joined against the source pattern restricted to what happened
      before.
    - {b [`Fused]}: execution-time; the whole rulebook is compiled into
      one shared plan ({!Weblab_compile}: pattern-prefix trie, CSE,
      estimate-ordered hash joins) and each call is processed in a
      single fused pass per side, with the source rows of append-stable
      patterns memoised across calls so their per-call cost follows the
      appended fragment, not the document (see {!Strategy_fused}).

    Each strategy is a first-class {!Strategy_sig.STRATEGY_BACKEND}
    (init → observe committed calls → finalize); this module names them
    for dispatch and keeps the historical entry points.  All backends
    produce identical link sets (property-tested, including under fault
    plans). *)

open Weblab_xml
open Weblab_workflow

type rulebook = (string * Rule.t list) list
(** The M(s) of the paper: rules attached to each service name. *)

val rules_for : rulebook -> string -> Rule.t list

type post_hoc = [ `Replay | `Rewrite ]

type kind = [ `Online | `Replay | `Rewrite | `Fused ]
(** Every strategy, as selectable from the CLI ([--strategy]). *)

val all : kind list
(** The backend registry, in registration order.  The CLI's
    [--strategy] parser/usage and the agreement test suites derive from
    this list; CI pins {!names} and fails when an enumeration drifts. *)

val names : string list
(** [List.map kind_to_string all]. *)

val backend_of : kind -> Strategy_sig.backend
(** The backend implementing a strategy — feed it to
    {!Engine.run_with_backend}. *)

val kind_of_string : string -> kind option
(** Inverse of {!kind_to_string} over {!all} — every registered backend
    name, nothing else. *)

val kind_to_string : kind -> string

val sequential_hb : int -> int -> bool
(** The default happened-before relation: plain timestamp order [t' < t].
    Parallel executions (§8) supply {!Parallel.happened_before} instead. *)

val infer :
  ?strategy:post_hoc ->
  ?inheritance:bool ->
  ?happened_before:(int -> int -> bool) ->
  ?jobs:int ->
  doc:Tree.t ->
  trace:Trace.t ->
  rulebook ->
  Prov_graph.t
(** Post-hoc inference from a final document and its execution trace.
    Defaults: [`Rewrite], no inherited closure, sequential control flow,
    [jobs] from {!Pool.configured_jobs}.  For any [jobs] the graph is
    bit-identical to the sequential one. *)

val online :
  rulebook ->
  Prov_graph.t
  * (Trace.call -> Doc_state.t -> Doc_state.t -> Orchestrator.delta -> unit)
(** The Online strategy: a graph under construction and the
    {!Orchestrator.execute} [on_step] hook that feeds it.  The hook adds
    data-dependency links only; populate λ from the trace afterwards
    (see {!Engine.run_online}). *)
