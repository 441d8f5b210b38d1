(** High-level entry points — the Graph Construction / Request Manager
    roles of the Figure 5 architecture: run a workflow and obtain its
    provenance graph, or infer provenance from an existing execution. *)

open Weblab_xml
open Weblab_workflow

type execution = {
  doc : Tree.t;      (** the final document (all states, as an arena) *)
  trace : Trace.t;   (** the execution trace (the Source table) *)
}

val run : ?policy:Orchestrator.policy -> Tree.t -> Service.t list -> execution
(** Execute a sequential workflow (no provenance inference).  [policy]
    supervises each call — retries, budgets, skip-or-propagate on failure
    (see {!Orchestrator.execute}). *)

val run_with_backend :
  ?policy:Orchestrator.policy ->
  ?jobs:int ->
  Strategy_sig.backend ->
  Tree.t -> Service.t list -> Strategy.rulebook ->
  execution * Prov_graph.t
(** Execute a workflow with a strategy backend observing it: [init] on
    the input document, [observe] after each committed call (failed,
    rolled-back calls are never observed), [finalize] once the trace is
    complete.  [jobs] is the inference parallelism (see
    {!Strategy_sig.STRATEGY_BACKEND.init}); the graph is bit-identical
    to the sequential one for any value. *)

val run_with_strategy :
  ?policy:Orchestrator.policy ->
  ?jobs:int ->
  Strategy.kind ->
  Tree.t -> Service.t list -> Strategy.rulebook ->
  execution * Prov_graph.t
(** [run_with_backend] on {!Strategy.backend_of}.  All registered
    strategies produce identical link sets. *)

val provenance :
  ?strategy:Strategy.post_hoc ->
  ?inheritance:bool ->
  ?happened_before:(int -> int -> bool) ->
  ?jobs:int ->
  execution ->
  Strategy.rulebook ->
  Prov_graph.t
(** Post-hoc inference (see {!Strategy.infer}). *)

val run_parallel :
  ?policy:Orchestrator.policy ->
  ?strategy:Strategy.post_hoc ->
  ?inheritance:bool ->
  ?jobs:int ->
  Tree.t ->
  Parallel.wf ->
  Strategy.rulebook ->
  execution * Parallel.execution * Prov_graph.t
(** Series-parallel workflows (§8): execute with channel recording, then
    infer with the happened-before relation of the series-parallel order
    instead of plain timestamp comparison. *)

val run_with_provenance :
  ?policy:Orchestrator.policy ->
  ?strategy:Strategy.post_hoc ->
  ?inheritance:bool ->
  ?jobs:int ->
  Tree.t ->
  Service.t list ->
  Strategy.rulebook ->
  execution * Prov_graph.t
(** [run] followed by [provenance]. *)

val to_turtle : ?trace:Trace.t -> Prov_graph.t -> string
(** Passing [trace] additionally exports failed service calls as
    invalidated activities (see {!Prov_export.to_store}). *)

val to_dot : Prov_graph.t -> string
