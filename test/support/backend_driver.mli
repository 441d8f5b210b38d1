(** Any strategy backend, stepped one call at a time through an
    orchestrator session ({!Weblab_workflow.Orchestrator.step} with the
    backend's [observe] as [on_step]) and queryable between calls by its
    [snapshot].

    The daemon's sessions serve Fused only; this is the generic path
    they no longer take, kept so the tests can check a served session
    against the offline run of each of the four backends at every
    commit. *)

open Weblab_xml
open Weblab_workflow
open Weblab_prov

type t

val start :
  ?policy:Orchestrator.policy ->
  Strategy_sig.backend ->
  doc:Tree.t ->
  Strategy.rulebook ->
  t
(** {!Orchestrator.start} on [doc], then the backend's [init] at width 1
    — the order and width a session uses. *)

val step : t -> Service.t -> Orchestrator.step_result
(** One supervised call; the backend observes it only if it commits. *)

val trace : t -> Trace.t

val graph : t -> Prov_graph.t
(** The backend's [snapshot] over the document and trace so far; valid
    until the next {!step}. *)

val finalize : t -> Prov_graph.t
(** The backend's [finalize]; no {!step} may follow. *)

val turtle : t -> string
(** {!Prov_export.to_turtle} of {!graph} with the trace's outcomes —
    the bytes a session serves for the same calls. *)
