open Weblab_xml
open Weblab_workflow
open Weblab_prov

(* The backend's state type is hidden behind the closures that drive it. *)
type t = {
  orch : Orchestrator.session;
  observe :
    Trace.call -> Doc_state.t -> Doc_state.t -> Orchestrator.delta -> unit;
  snapshot : doc:Tree.t -> trace:Trace.t -> Prov_graph.t;
  finish : doc:Tree.t -> trace:Trace.t -> Prov_graph.t;
}

let start ?policy backend ~doc rb =
  let module B = (val backend : Strategy_sig.STRATEGY_BACKEND) in
  let orch = Orchestrator.start ?policy doc in
  let st = B.init ~jobs:1 ~doc rb in
  { orch;
    observe =
      (fun call before after delta -> B.observe st ~call ~before ~after ~delta);
    snapshot = B.snapshot st; finish = B.finalize st }

let step d svc = Orchestrator.step ~on_step:d.observe d.orch svc

let trace d = Orchestrator.session_trace d.orch

let graph d = d.snapshot ~doc:(Orchestrator.session_doc d.orch) ~trace:(trace d)

let finalize d = d.finish ~doc:(Orchestrator.session_doc d.orch) ~trace:(trace d)

let turtle d = Prov_export.to_turtle ~trace:(trace d) (graph d)
