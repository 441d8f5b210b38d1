(* First-class evaluation-strategy backends.

   The paper's §6 presents the evaluation strategies as interchangeable
   ways of computing the same provenance mapping; this signature makes
   that interchangeability explicit in the code.  A backend is driven by
   the engine through three phases:

   - [init] before the workflow starts, with the initial document and the
     rulebook;
   - [observe] after every {e committed} call, with the call, the
     surrounding document states, and the delta the call committed
     (failed, rolled-back calls are never observed — the orchestrator
     restores the arena before the hook could run, so a backend's
     accumulated state cannot be poisoned by discarded nodes);
   - [finalize] once the workflow is over, with the final document and
     trace, producing the provenance graph.

   Post-hoc strategies (Replay, Rewrite) ignore the observations and do
   all their work in [finalize]; execution-time strategies (Online,
   Fused) accumulate links in [observe] and only label resources in
   [finalize].  All backends produce identical graphs — property-tested,
   including under fault plans. *)

open Weblab_xml
open Weblab_workflow

type rulebook = (string * Rule.t list) list
(* Rules attached to each service name: the M(s) of the paper. *)

let rules_for (rb : rulebook) service =
  match List.assoc_opt service rb with Some rules -> rules | None -> []

(* The default control flow is sequential: "t' happened before t" is
   simply t' < t.  Parallel executions (§8) supply the series-parallel
   happened-before relation instead. *)
let sequential_hb t' t = t' < t

(* One rule evaluation's telemetry, recorded at the merge point — the
   caller's domain, in item order — so spans, per-rule counters and
   meta-provenance activities are emitted deterministically whatever the
   pool schedule was.  [t0]/[t1]/[worker] come from the {!Telemetry.timed}
   wrapper the backends run around each item body. *)
let record_rule_eval ~service ~time ~rule_name ~t0 ~t1 ~worker ~links =
  let module T = Weblab_obs.Telemetry in
  if T.enabled () then
    T.add (T.counter ("rule." ^ rule_name ^ ".links")) (List.length links);
  if T.spans_on () then
    T.emit_span ~cat:"inference"
      ~args:
        [ ("service", service); ("t", string_of_int time);
          ("links", string_of_int (List.length links)) ]
      ~name:("rule:" ^ rule_name) ~worker ~t0 ~t1 ();
  if T.meta_on () then
    T.record_meta
      { T.m_service = service; m_time = time; m_rule = rule_name;
        m_t0 = t0; m_t1 = t1; m_links = links }

let add_application g rule_name (app : Mapping.application) =
  List.iter
    (fun (out, inp) ->
      Prov_graph.add_link g ~rule:rule_name ~from_uri:out ~to_uri:inp)
    app.Mapping.links;
  List.iter
    (fun (entity, member) -> Prov_graph.add_member g ~entity ~member)
    app.Mapping.members

module type STRATEGY_BACKEND = sig
  val name : string

  type state

  val init : ?jobs:int -> doc:Tree.t -> rulebook -> state
  (* [jobs] is the inference parallelism (a {!Pool} size).  Defaults to
     {!Pool.configured_jobs} — sequential unless the [JOBS] environment
     variable says otherwise — and [jobs = 1] must take the exact
     sequential path.  Whatever the schedule, the finalized graph is
     bit-identical to the sequential one. *)

  val observe :
    state ->
    call:Trace.call ->
    before:Doc_state.t ->
    after:Doc_state.t ->
    delta:Orchestrator.delta ->
    unit

  val snapshot : state -> doc:Tree.t -> trace:Trace.t -> Prov_graph.t
  (* The provenance graph of the execution {e so far}, without ending the
     backend: [observe] keeps working afterwards and [finalize] remains
     the terminal call.  This is what lets a serving daemon answer
     [why]/[impact]/BGP queries between appends on a live session.
     Execution-time backends label their live graph from the trace and
     return it (cheap — the labels are idempotent and re-applied at
     [finalize]); post-hoc backends run their inference over the current
     document and trace.  The returned graph is only valid to read until
     the next [observe] on the same state. *)

  val finalize : state -> doc:Tree.t -> trace:Trace.t -> Prov_graph.t
end

type backend = (module STRATEGY_BACKEND)
