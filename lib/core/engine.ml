(* High-level entry points tying the pieces together: run a workflow and
   obtain its provenance graph, or infer provenance from an existing
   execution trace — the Graph Construction / Request Manager roles in the
   Figure 5 architecture. *)

open Weblab_xml
open Weblab_workflow

type execution = {
  doc : Tree.t;
  trace : Trace.t;
}

(* Run a sequential workflow (without provenance inference). *)
let run ?policy doc services =
  let trace = Orchestrator.execute ?policy doc services in
  { doc; trace }

(* Run a workflow with a strategy backend observing the execution: the
   backend is initialized on the input document, fed every committed call
   (the hook never fires for a failed, rolled-back call), and finalized
   into the provenance graph once the trace is complete. *)
let run_with_backend ?policy ?jobs (backend : Strategy_sig.backend) doc
    services (rb : Strategy.rulebook) =
  let module B = (val backend : Strategy_sig.STRATEGY_BACKEND) in
  let module T = Weblab_obs.Telemetry in
  let st = B.init ?jobs ~doc rb in
  let trace =
    T.span ~cat:"engine" ("execute:" ^ B.name) (fun () ->
        Orchestrator.execute ?policy
          ~on_step:(fun call before after delta ->
            B.observe st ~call ~before ~after ~delta)
          doc services)
  in
  let g = T.span ~cat:"engine" ("finalize:" ^ B.name) (fun () ->
      B.finalize st ~doc ~trace)
  in
  ({ doc; trace }, g)

(* Run a workflow under any named strategy.  Execution-time backends
   (Online, Fused) do their work in the hook; post-hoc backends
   (Replay, Rewrite) ignore the hook and infer in [finalize]. *)
let run_with_strategy ?policy ?jobs (kind : Strategy.kind) doc services rb =
  run_with_backend ?policy ?jobs (Strategy.backend_of kind) doc services rb

(* Post-hoc inference from the final document and the execution trace. *)
let provenance ?strategy ?inheritance ?happened_before ?jobs { doc; trace } rb
    =
  Strategy.infer ?strategy ?inheritance ?happened_before ?jobs ~doc ~trace rb

(* Series-parallel workflows (§8): execute with channel recording, then
   infer with the happened-before relation of the series-parallel order
   instead of plain timestamp comparison. *)
let run_parallel ?policy ?strategy ?inheritance ?jobs doc (wf : Parallel.wf)
    rb =
  let pexec = Parallel.execute ?policy doc wf in
  let exec = { doc; trace = pexec.Parallel.trace } in
  let happened_before = Parallel.happened_before pexec in
  let g =
    Strategy.infer ?strategy ?inheritance ~happened_before ?jobs ~doc
      ~trace:exec.trace rb
  in
  (exec, pexec, g)

(* End to end: run, infer, export. *)
let run_with_provenance ?policy ?strategy ?inheritance ?jobs doc services rb =
  let exec = run ?policy doc services in
  (exec, provenance ?strategy ?inheritance ?jobs exec rb)

let to_turtle ?trace g = Prov_export.to_turtle ?trace g

let to_dot = Dot.to_dot
