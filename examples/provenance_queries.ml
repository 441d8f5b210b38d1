(* Provenance as a debugging and audit tool: run a pipeline, then answer
   the questions §2 of the paper motivates —

   - what does a given resource depend on (directly / transitively)?
   - which call used which resources, and which calls informed which?
   - how does a dependency actually flow (shortest explanation path)?
   - what is the difference between the four evaluation strategies'
     outputs (none — demonstrated live)?

   Run with:  dune exec examples/provenance_queries.exe *)

open Weblab_workflow
open Weblab_services
open Weblab_prov

let rulebook services =
  List.filter_map
    (fun svc ->
      Catalog.find (Service.name svc)
      |> Option.map (fun e ->
             (Service.name svc, List.map Rule_parser.parse e.Catalog.rules)))
    services

let () =
  let doc = Workload.make_document ~units:3 ~seed:7 () in
  let services = Workload.standard_pipeline ~extended:true () in
  let rb = rulebook services in

  (* Infer with all four strategies and show they agree.  Fused is an
     execution-time strategy, so it re-runs the (deterministic) workload
     on a fresh document. *)
  let exec, g_online = Engine.run_with_strategy `Online doc services rb in
  let g_replay = Engine.provenance ~strategy:`Replay exec rb in
  let g_rewrite = Engine.provenance ~strategy:`Rewrite exec rb in
  let g_fused =
    let doc = Workload.make_document ~units:3 ~seed:7 () in
    let services = Workload.standard_pipeline ~extended:true () in
    snd (Engine.run_with_strategy `Fused doc services (rulebook services))
  in
  let key g =
    Prov_graph.links g
    |> List.map (fun l -> (l.Prov_graph.from_uri, l.Prov_graph.to_uri))
    |> List.sort_uniq compare
  in
  Printf.printf
    "Strategies agree: online=%d links, replay=%d, rewrite=%d, \
     fused=%d, equal=%b\n\n"
    (List.length (key g_online))
    (List.length (key g_replay))
    (List.length (key g_rewrite))
    (List.length (key g_fused))
    (key g_online = key g_replay
    && key g_replay = key g_rewrite
    && key g_rewrite = key g_fused);

  let g = Inheritance.close exec.Engine.doc g_rewrite in

  (* Pick the last produced resource and explain it. *)
  let last_resource =
    Prov_graph.labeled_resources g
    |> List.fold_left
         (fun acc (uri, call) ->
           match acc with
           | Some (_, c) when c.Trace.time >= call.Trace.time -> acc
           | _ -> Some (uri, call))
         None
  in
  (match last_resource with
   | Some (uri, call) ->
     Printf.printf "=== Explaining %s (produced by %s at t%d) ===\n" uri
       call.Trace.service call.Trace.time;
     Printf.printf "direct dependencies: %s\n"
       (String.concat ", " (Prov_graph.depends_on g uri));
     let upstream = Query.depends_on_transitive g uri in
     Printf.printf "transitive closure (%d): %s\n" (List.length upstream)
       (String.concat ", " upstream);
     (* Shortest explanation path back to an initial resource. *)
     let initial =
       List.find_opt
         (fun u ->
           match Prov_graph.label g u with
           | Some c -> c.Trace.time = 0
           | None -> false)
         upstream
     in
     (match initial with
      | Some src -> (
        match Query.path g ~from_uri:uri ~to_uri:src with
        | Some p -> Printf.printf "explanation path: %s\n" (String.concat " -> " p)
        | None -> ())
      | None -> ())
   | None -> print_endline "no labeled resources?");

  (* Call-level view. *)
  print_endline "\n=== Call-level lineage (prov:wasInformedBy) ===";
  List.iter
    (fun (call : Trace.call) ->
      if call.Trace.time > 0 then begin
        let informed = Query.informed_by g call in
        Printf.printf "  (%s, t%d) was informed by: %s\n" call.Trace.service
          call.Trace.time
          (if informed = [] then "(nothing)"
           else
             String.concat ", "
               (List.map
                  (fun c -> Printf.sprintf "(%s, t%d)" c.Trace.service c.Trace.time)
                  informed))
      end)
    (Trace.calls exec.Engine.trace);

  (* The same questions through SPARQL. *)
  print_endline "\n=== SPARQL: entities derived from initial sources ===";
  let store = Prov_export.to_store g in
  let q =
    "SELECT ?derived ?src WHERE { ?derived prov:wasDerivedFrom ?src . \
     ?src prov:wasGeneratedBy <http://weblab.ow2.org/prov#call/Source-0> }"
  in
  print_string (Weblab_relalg.Table.to_string (Weblab_rdf.Sparql.run store q))
