(* The Replay strategy, as a backend: post-hoc, per call — the states
   d_{i-1} and d_i are reconstructed from the final document (cheap in
   this code base, since states are timestamp-filtered views of the
   arena) and the service's rules are applied to each pair.

   Replay is the embarrassingly parallel strategy: every (call, rule)
   work item reads the same frozen document through timestamp-filtered
   views, so the items fan out over a {!Pool} with no shared mutable
   state at all.  The index snapshot is built once up front and handed
   to every worker; the per-item applications are merged back into the
   graph in trace order, which performs the exact [add_link] sequence of
   the sequential loop — the graph is bit-identical whatever the
   schedule. *)

open Weblab_xml
open Weblab_workflow

let name = "replay"

let infer ?(happened_before = Strategy_sig.sequential_hb) ?jobs ~doc ~trace
    (rb : Strategy_sig.rulebook) g =
  (* The flattened (call, rule) work items, in trace order. *)
  let items =
    Trace.calls trace
    |> List.concat_map (fun (call : Trace.call) ->
           if call.Trace.time > 0 then
             List.map
               (fun rule -> (call, rule))
               (Strategy_sig.rules_for rb call.Trace.service)
           else [])
    |> Array.of_list
  in
  if Array.length items > 0 then begin
    let index = Index.build doc in
    let apply (call, rule) =
      let source_visible n =
        happened_before (Tree.created doc n) call.Trace.time
      in
      Mapping.apply_call ~source_visible ~index rule ~doc ~call
    in
    let module T = Weblab_obs.Telemetry in
    let apps =
      Pool.with_pool ?jobs (fun pool ->
          Pool.map pool (Array.length items) (fun i ->
              T.timed (fun () -> apply items.(i))))
    in
    (* Merge in item order = trace order: the same insertion sequence the
       sequential loop performs. *)
    Array.iteri
      (fun i tr ->
        let call, rule = items.(i) in
        let rule_name = Rule.name rule in
        Strategy_sig.record_rule_eval ~service:call.Trace.service
          ~time:call.Trace.time ~rule_name ~t0:tr.T.t0 ~t1:tr.T.t1
          ~worker:tr.T.worker ~links:tr.T.v.Mapping.links;
        Strategy_sig.add_application g ~step:call.Trace.time rule_name
          tr.T.v)
      apps
  end

type state = { rb : Strategy_sig.rulebook; jobs : int option }

let init ?jobs ~doc:_ rb = { rb; jobs }

let observe _ ~call:_ ~before:_ ~after:_ ~delta:_ = ()

let finalize st ~doc ~trace =
  let g = Prov_graph.of_trace trace in
  infer ?jobs:st.jobs ~doc ~trace st.rb g;
  g

(* Post-hoc: a snapshot is a full inference over the current document and
   trace — [finalize] holds no terminal resources, so it doubles as the
   snapshot. *)
let snapshot st ~doc ~trace = finalize st ~doc ~trace
