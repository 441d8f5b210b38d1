(* The Rewrite strategy, as a backend: post-hoc, single-pass — each
   rule's target pattern is rewritten with the [@s] service constraint
   and evaluated *once* on the final document for all calls of the
   service; the rows are then grouped by the creation timestamp of the
   matched resources and joined against the source pattern restricted to
   the resources existing before that timestamp.  This is the §4
   rewriting, operationalized.

   Parallel inference fans the (service, rule) work items out over a
   {!Pool}.  Each item computes an ordered emission buffer instead of
   writing into the graph directly; the buffers are replayed afterwards
   in call-time order (item order within a time), which performs the
   exact [add_link] sequence of the per-call backends — bit-identical
   graphs for any schedule.  The
   memo cache stays shared (a mutex guards the table; computation runs
   outside the lock and a racing duplicate is harmless because entries
   are pure functions of their key). *)

open Weblab_xml
open Weblab_xpath
open Weblab_relalg
open Weblab_workflow

let name = "rewrite"

(* All calls of [service] in the trace, by timestamp. *)
let call_times trace service =
  Trace.calls trace
  |> List.filter_map (fun (c : Trace.call) ->
         if String.equal c.Trace.service service && c.Trace.time > 0 then
           Some c.Trace.time
         else None)

(* Memoized pattern evaluations for one inference pass.  Rulebooks
   routinely attach the same source pattern to many rules (and the same
   rule to many services), and the per-timestamp source restriction
   re-evaluates it once per distinct call time: keying on the pattern AST
   (structural equality — patterns are small finite trees) collapses all
   of that to one evaluation each.  The cache is valid only within a
   single pass: entries depend on the pass's [happened_before] relation.
   The cached tables are shared, never mutated — every consumer only joins
   or projects them.

   Workers from several domains share one cache, so the tables are
   guarded by [lock].  [cached] looks up under the lock but computes
   outside it: two workers may briefly duplicate an evaluation, but the
   values are deterministic, so first-writer-wins keeps every consumer
   consistent. *)
type cache = {
  sources : (Ast.pattern * int, Table.t) Hashtbl.t;
      (* (source pattern, call time) → projected source table *)
  targets : (Ast.pattern * string, Table.t) Hashtbl.t;
      (* (target pattern, service) → rewritten-target evaluation *)
  lock : Mutex.t;
}

let make_cache () =
  { sources = Hashtbl.create 32; targets = Hashtbl.create 32;
    lock = Mutex.create () }

module T = Weblab_obs.Telemetry

let c_memo_hit = T.counter "rewrite.memo.hit"
let c_memo_miss = T.counter "rewrite.memo.miss"

let cached cache tbl key compute =
  match Mutex.protect cache.lock (fun () -> Hashtbl.find_opt tbl key) with
  | Some v ->
    T.incr c_memo_hit;
    v
  | None ->
    T.incr c_memo_miss;
    let v = compute () in
    Mutex.protect cache.lock (fun () ->
        match Hashtbl.find_opt tbl key with
        | Some winner -> winner
        | None ->
          Hashtbl.add tbl key v;
          v)

(* One work item's output: the graph operations it would have performed,
   in order.  Buffering them (instead of writing to the graph) is what
   lets items run on any domain and still merge deterministically.  Each
   emission carries the call time it belongs to, so the merge can
   attribute links to per-call evaluation activities (meta-provenance)
   even though the rewrite evaluates once per (service, rule). *)
type emission =
  | App of int * string * Mapping.application
  | Link of { time : int; rule : string; from_uri : string; to_uri : string }

let emission_time = function App (time, _, _) | Link { time; _ } -> time

let replay_emission g = function
  | App (time, rule_name, app) ->
    Strategy_sig.add_application g ~step:time rule_name app
  | Link { time; rule; from_uri; to_uri } ->
    Prov_graph.add_link g ~rule ~step:time ~from_uri ~to_uri

let infer_rule ?(happened_before = Strategy_sig.sequential_hb) ~cache ~index
    ~doc ~trace ~service rule =
  let out = ref [] in
  let emit e = out := e :: !out in
  (if Mapping.is_skolem_rule rule then
     (* Skolem targets have no @s/@t labels to rewrite against; they fall
        back to per-call evaluation. *)
     List.iter
       (fun time ->
         let call = { Trace.service; time } in
         let source_visible n = happened_before (Tree.created doc n) time in
         emit
           (App
              ( time,
                Rule.name rule,
                Mapping.apply_call ~source_visible ~index rule ~doc ~call )))
       (call_times trace service)
   else begin
     let target = Rule.target rule in
     let tgt_vars =
       List.sort_uniq String.compare
         (Ast.variables target @ Ast.free_variables target)
     in
     (* One evaluation of the rewritten target for all calls of the service
        — and for all rules sharing this target pattern.  The rewritten
        pattern ends in [@s = service], a filter on the last step's
        candidates; the index serves that step's label lookup only. *)
     let rt =
       cached cache cache.targets (target, service) (fun () ->
           (* A matched resource is grouped under the call that created
              it, so one promoted by a later call does not count. *)
           Eval.eval
             ~resource:(fun n -> Mapping.resource_at doc (Tree.created doc n) n)
             ~index doc
             (Pattern_rewrite.target_service target service))
     in
     (* Group target rows by the timestamp of the matched resource. *)
     let groups = Hashtbl.create 8 in
     List.iter
       (fun row ->
         match Table.get rt row "node" with
         | Value.Node n ->
           let time = Tree.created doc n in
           let rows = try Hashtbl.find groups time with Not_found -> [] in
           Hashtbl.replace groups time (row :: rows)
         | Value.Str _ | Value.Int _ -> ())
       (Table.rows rt);
     let times = Hashtbl.fold (fun t _ acc -> t :: acc) groups [] in
     List.iter
       (fun time ->
         if time > 0 then begin
           let rows = Hashtbl.find groups time in
           let sub = Table.create (Table.columns rt) in
           List.iter (Table.add_row sub) rows;
           let rt' =
             Table.project
               (Table.rename sub [ ("r", "out") ])
               ("out" :: tgt_vars)
           in
           (* φ'_S: resources that happened before the call.  Memoized per
              (source pattern, time): every rule with this source — and
              every service whose calls share the timestamp — reuses the
              evaluation. *)
           let rs =
             cached cache cache.sources (Rule.source rule, time) (fun () ->
                 let guards =
                   { Eval.visible =
                       (fun n -> happened_before (Tree.created doc n) time);
                     env = [] }
                 in
                 Mapping.source_table ~guards
                   ~resource:(Mapping.resource_at doc time) ~index doc rule)
           in
           let j = Table.hash_join rs rt' in
           List.iter
             (fun (out, inp) ->
               emit
                 (Link
                    { time; rule = Rule.name rule; from_uri = out;
                      to_uri = inp }))
             (Mapping.links_of_table j)
         end)
       (List.sort compare times)
   end);
  List.rev !out

let infer ?happened_before ?jobs ~doc ~trace (rb : Strategy_sig.rulebook) g =
  let services =
    Trace.calls trace
    |> List.filter_map (fun (c : Trace.call) ->
           if c.Trace.time > 0 then Some c.Trace.service else None)
    |> List.sort_uniq String.compare
  in
  (* The flattened (service, rule) work items, in the deterministic
     sorted-service, rulebook-order traversal of the sequential pass. *)
  let items =
    services
    |> List.concat_map (fun service ->
           List.map (fun rule -> (service, rule)) (Strategy_sig.rules_for rb service))
    |> Array.of_list
  in
  if Array.length items > 0 then begin
    (* One evaluation cache for the whole pass; sound because
       [happened_before] is fixed for the pass. *)
    let cache = make_cache () in
    let index = Index.build doc in
    let buffers =
      Pool.with_pool ?jobs (fun pool ->
          Pool.map pool (Array.length items) (fun i ->
              T.timed (fun () ->
                  let service, rule = items.(i) in
                  infer_rule ?happened_before ~cache ~index ~doc ~trace
                    ~service rule)))
    in
    Array.iteri
      (fun i tr ->
        let service, rule = items.(i) in
        let rule_name = Rule.name rule in
        (if T.enabled () || T.meta_on () then begin
           (* Re-group this item's emissions by call time (first-appearance
              order) to report one evaluation activity per call × rule; the
              per-call activities share the item's evaluation interval. *)
           let order = ref [] in
           let by_time = Hashtbl.create 8 in
           List.iter
             (fun e ->
               let time, links =
                 match e with
                 | App (time, _, app) -> (time, app.Mapping.links)
                 | Link { time; from_uri; to_uri; _ } ->
                   (time, [ (from_uri, to_uri) ])
               in
               match Hashtbl.find_opt by_time time with
               | Some l -> Hashtbl.replace by_time time (l @ links)
               | None ->
                 order := time :: !order;
                 Hashtbl.add by_time time links)
             tr.T.v;
           List.iter
             (fun time ->
               Strategy_sig.record_rule_eval ~service ~time ~rule_name
                 ~t0:tr.T.t0 ~t1:tr.T.t1 ~worker:tr.T.worker
                 ~links:(Hashtbl.find by_time time))
             (List.rev !order)
         end))
      buffers;
    (* Into the graph in call-time order, item order within a time: the
       per-call add_link sequence of the execution-time backends, so the
       links of a run's prefix come first. *)
    Array.to_list buffers
    |> List.concat_map (fun tr -> tr.T.v)
    |> List.stable_sort (fun a b ->
           compare (emission_time a) (emission_time b))
    |> List.iter (replay_emission g)
  end

type state = { rb : Strategy_sig.rulebook; jobs : int option }

let init ?jobs ~doc:_ rb = { rb; jobs }

let observe _ ~call:_ ~before:_ ~after:_ ~delta:_ = ()

let finalize st ~doc ~trace =
  let g = Prov_graph.of_trace trace in
  infer ?jobs:st.jobs ~doc ~trace st.rb g;
  g

(* Post-hoc: the single-pass rewriting runs over whatever the document
   and trace currently are, so [finalize] doubles as the snapshot. *)
let snapshot st ~doc ~trace = finalize st ~doc ~trace
