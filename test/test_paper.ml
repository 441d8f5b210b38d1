(* Exact reproduction of every figure and worked example of the paper
   (the experiment index F1-F4 / E5-E9 of DESIGN.md). *)

open Weblab_xml
open Weblab_relalg
open Weblab_workflow
open Weblab_scenario
open Weblab_prov

let check = Alcotest.check
let check_int = check Alcotest.int
let check_str = check Alcotest.string
let check_bool = check Alcotest.bool

let e = lazy (Paper.run ())

let table_pairs t col1 col2 =
  Table.rows t
  |> List.map (fun row ->
         ( Value.to_string (Table.get t row col1),
           Value.to_string (Table.get t row col2) ))
  |> List.sort compare

let pairs = Alcotest.(list (pair string string))

(* F1: the control flow and the resources added per call. *)
let test_fig1_calls () =
  let e = Lazy.force e in
  check (Alcotest.list Alcotest.string) "control flow"
    [ "Source"; "Normaliser"; "LanguageExtractor"; "Translator" ]
    (List.map (fun c -> c.Trace.service) (Trace.calls e.Paper.trace))

let test_fig1_data_flow () =
  let e = Lazy.force e in
  let out t =
    Trace.resources_of_call e.Paper.trace (Option.get (Trace.call_at e.Paper.trace t))
    |> List.sort compare
  in
  check (Alcotest.list Alcotest.string) "out(c0)" [ "r1"; "r3" ] (out 0);
  check (Alcotest.list Alcotest.string) "out(c1)" [ "r4"; "r5" ] (out 1);
  check (Alcotest.list Alcotest.string) "out(c2)" [ "r6" ] (out 2);
  check (Alcotest.list Alcotest.string) "out(c3)" [ "r8" ] (out 3)

(* F2: the Source table rows. *)
let test_fig2_source_table () =
  let e = Lazy.force e in
  let entries =
    Trace.entries e.Paper.trace
    |> List.map (fun en ->
           Printf.sprintf "%s %s t%d" en.Trace.uri en.Trace.call.Trace.service
             en.Trace.call.Trace.time)
  in
  check (Alcotest.list Alcotest.string) "Source"
    [ "r1 Source t0"; "r3 Source t0"; "r4 Normaliser t1"; "r5 Normaliser t1";
      "r6 LanguageExtractor t2"; "r8 Translator t3" ]
    entries

(* F2: the Provenance table: 4 -> 3, 6 -> 5, 8 -> 4 (explicit). *)
let expected_explicit = [ ("r4", "r3"); ("r6", "r5"); ("r8", "r4") ]

let graph_links ?(inherited = false) g =
  Prov_graph.links g
  |> List.filter (fun l -> l.Prov_graph.inherited = inherited)
  |> List.map (fun l -> (l.Prov_graph.from_uri, l.Prov_graph.to_uri))
  |> List.sort_uniq compare

let test_fig2_provenance_links () =
  let e = Lazy.force e in
  List.iter
    (fun strategy ->
      let g = Figures.explicit_graph ~strategy e in
      check pairs "explicit links" expected_explicit (graph_links g))
    [ `Replay; `Rewrite ]

(* §4: the implicit link 8 -> 6 mentioned in the text, via inheritance. *)
let test_inherited_links () =
  let e = Lazy.force e in
  let g = Figures.inherited_graph e in
  let inh = graph_links ~inherited:true g in
  check_bool "8 -> 6" true (List.mem ("r8", "r6") inh);
  check_bool "8 -> 5" true (List.mem ("r8", "r5") inh);
  (* "node 4 depends on 2, which is an ancestor of 3": node 2 is unlabeled,
     so over labeled resources 4 inherits the dependency on r1 instead. *)
  check_bool "4 -> 1" true (List.mem ("r4", "r1") inh);
  check_bool "graph acyclic" true (Prov_graph.is_acyclic g);
  check_bool "temporally sound" true (Prov_graph.temporally_sound g)

(* F3: mapping round trip. *)
let test_fig3_mappings () =
  List.iter
    (fun m ->
      let r = Rule_parser.parse m in
      let r' = Rule_parser.parse (Rule.to_string r) in
      check_bool m true (Rule.source r = Rule.source r' && Rule.target r = Rule.target r'))
    Paper.mapping_syntax

(* F4: the document states. *)
let test_fig4_states () =
  let e = Lazy.force e in
  let expected_d0 = "d0:\n  R r1\n    M 2\n      N 3\n" in
  check_str "d0" expected_d0 (Figures.render_state e 0);
  let expected_d1 =
    "d1:\n  R r1\n    M 2\n      N r3\n    T r4\n      C r5\n"
  in
  check_str "d1" expected_d1 (Figures.render_state e 1);
  let expected_d3 =
    "d3:\n  R r1\n    M 2\n      N r3\n    T r4\n      C r5\n      A r6\n\
     \        L 7\n    T r8\n      C 9\n      A 10\n        L 11\n"
  in
  check_str "d3" expected_d3 (Figures.render_state e 3)

let test_fig4_containment () =
  let e = Lazy.force e in
  let s i = Paper.state e i in
  List.iter
    (fun i ->
      check_bool
        (Printf.sprintf "d%d in d%d" i (i + 1))
        true
        (Doc_state.contains ~smaller:(s i) ~larger:(s (i + 1))))
    [ 0; 1; 2 ];
  check_bool "monotone timestamps" true (Doc_state.timestamps_monotonic e.Paper.doc)

(* The detected language must be French for M3 to fire. *)
let test_language_detected () =
  let e = Lazy.force e in
  let r4 = Option.get (Tree.find_resource e.Paper.doc "r4") in
  check_str "fr" "fr"
    (Option.get (Weblab_services.Schema.language_of_unit e.Paper.doc r4));
  let r8 = Option.get (Tree.find_resource e.Paper.doc "r8") in
  check_str "en" "en"
    (Option.get (Weblab_services.Schema.language_of_unit e.Paper.doc r8))

(* E5: the embedding tables. *)
let test_ex5_tables () =
  let e = Lazy.force e in
  let t = Figures.pattern_result e ~phi:1 ~state:1 in
  check pairs "R_phi1(d1)" [ ("r5", "r4") ] (table_pairs t "$r" "$x");
  let t = Figures.pattern_result e ~phi:3 ~state:2 in
  check pairs "R_phi3(d2)" [ ("r6", "r4") ] (table_pairs t "$r" "$x");
  let t = Figures.pattern_result e ~phi:4 ~state:2 in
  check pairs "R_phi4(d2)" [ ("r4", "r1") ] (table_pairs t "$r" "$x");
  let t = Figures.pattern_result e ~phi:4 ~state:3 in
  check pairs "R_phi4(d3)" [ ("r4", "r1"); ("r8", "r1") ] (table_pairs t "$r" "$x")

(* phi2 is an equivalent rewriting of phi1 (Definition 4, condition 3). *)
let test_ex3_phi2_equiv_phi1 () =
  let e = Lazy.force e in
  List.iter
    (fun i ->
      let t1 = Weblab_xpath.Eval.eval_state (Paper.state e i) (Paper.phi 1) in
      let t2 = Weblab_xpath.Eval.eval_state (Paper.state e i) (Paper.phi 2) in
      check pairs
        (Printf.sprintf "phi1 = phi2 on d%d" i)
        (table_pairs t1 "r" "x") (table_pairs t2 "r" "x"))
    [ 0; 1; 2; 3 ]

(* E6: the join tables. *)
let test_ex6_joins () =
  let e = Lazy.force e in
  let t = Figures.ex6_table e ~rule:1 ~from_state:1 ~to_state:2 in
  check pairs "M1(d1,d2)" [ ("r5", "r6") ] (table_pairs t "$in" "$out");
  let t = Figures.ex6_table e ~rule:2 ~from_state:2 ~to_state:3 in
  check pairs "M2(d2,d3)" [ ("r4", "r4"); ("r4", "r8") ]
    (table_pairs t "$in" "$out")

(* E7: the restriction to out(c3) keeps only 8 -> 4. *)
let test_ex7_restriction () =
  let e = Lazy.force e in
  check pairs "M2(c3)" [ ("r8", "r4") ] (List.sort compare (Figures.ex7_links e))

(* E8: the generated XQuery for phi1. *)
let test_ex8_query_text () =
  let expected =
    "for $v1 in //TextMediaUnit,\n\
    \    $v2 in $v1/TextContent\n\
     let $x := $v1/@id\n\
     return <emb><r>{$v2/@id}</r><x>{$x}</x></emb>"
  in
  check_str "example 8" expected (Figures.ex8 (Lazy.force e))

(* E9: the optimized query merges the id join and drops a for-clause. *)
let test_ex9_optimization () =
  let naive, optimized = Figures.ex9_queries () in
  let fors q =
    List.length
      (List.filter
         (function Weblab_xquery.Xq_ast.For _ -> true | _ -> false)
         q.Weblab_xquery.Xq_ast.clauses)
  in
  check_int "naive fors" 4 (fors naive);
  check_int "optimized fors" 3 (fors optimized)

(* E9 semantics: naive and optimized queries compute the same links as the
   native engine on the final document. *)
let test_ex9_semantics () =
  let e = Lazy.force e in
  let naive, optimized = Figures.ex9_queries () in
  let run q =
    let t = Weblab_test_support.Xq_eval.run e.Paper.doc q in
    table_pairs t "in" "out"
  in
  check pairs "naive = optimized" (run naive) (run optimized);
  (* the rule is M2 for call c2: link 6 <- 5 *)
  check pairs "xquery result" [ ("r5", "r6") ] (run naive)

(* The full M3 rule (with its existential path comparisons) compiled to
   XQuery and evaluated on the final document reproduces the engine's
   link for c3. *)
let test_m3_xquery_compilation () =
  let e = Lazy.force e in
  let m3 = Rule_parser.parse Paper.m3 in
  let q =
    Weblab_xquery.Xq_compile.compile_rule_query (Rule.source m3) (Rule.target m3)
      ~service:"Translator" ~time:3
  in
  let t = Weblab_test_support.Xq_eval.run e.Paper.doc q in
  check pairs "m3 via xquery" [ ("r4", "r8") ] (table_pairs t "in" "out");
  (* and the query survives the print/parse round-trip *)
  let q' = Weblab_test_support.Xq_parser.parse (Weblab_xquery.Xq_print.to_string q) in
  let t' = Weblab_test_support.Xq_eval.run e.Paper.doc q' in
  check pairs "after text round-trip" [ ("r4", "r8") ] (table_pairs t' "in" "out")

(* PROV export of the running example. *)
let test_prov_export () =
  let e = Lazy.force e in
  let g = Figures.explicit_graph e in
  let store = Prov_export.to_store g in
  let open Weblab_rdf in
  let count q = Table.cardinality (Sparql.run store q) in
  check_int "entities" 6 (count "SELECT ?e WHERE { ?e a prov:Entity }");
  check_int "activities" 4 (count "SELECT ?a WHERE { ?a a prov:Activity }");
  check_int "derivations" 3
    (count "SELECT ?b ?a WHERE { ?b prov:wasDerivedFrom ?a }");
  (* (Translator,t3) wasInformedBy (Normaliser,t1) through 8 -> 4 *)
  check_int "informed" 1
    (count
       "SELECT ?x WHERE { \
        <http://weblab.ow2.org/prov#call/Translator-3> prov:wasInformedBy ?x }")

(* §2: call-level lineage of the running example. *)
let test_call_lineage () =
  let e = Lazy.force e in
  let g = Figures.inherited_graph e in
  let c3 = { Trace.service = "Translator"; time = 3 } in
  let informed = Query.informed_by_transitive g c3 in
  let services = List.map (fun c -> c.Trace.service) informed in
  (* With the implicit link 8 -> 6, the Translator used information
     generated by the LanguageExtractor (the example in §2). *)
  check_bool "informed by LanguageExtractor" true
    (List.mem "LanguageExtractor" services);
  check_bool "informed by Normaliser" true (List.mem "Normaliser" services)

let () =
  Alcotest.run "paper"
    [ ( "figure1",
        [ Alcotest.test_case "control flow" `Quick test_fig1_calls;
          Alcotest.test_case "data flow" `Quick test_fig1_data_flow ] );
      ( "figure2",
        [ Alcotest.test_case "source table" `Quick test_fig2_source_table;
          Alcotest.test_case "provenance links" `Quick test_fig2_provenance_links;
          Alcotest.test_case "inherited links" `Quick test_inherited_links ] );
      ( "figure3", [ Alcotest.test_case "mappings" `Quick test_fig3_mappings ] );
      ( "figure4",
        [ Alcotest.test_case "states" `Quick test_fig4_states;
          Alcotest.test_case "containment" `Quick test_fig4_containment;
          Alcotest.test_case "language" `Quick test_language_detected ] );
      ( "example5",
        [ Alcotest.test_case "embedding tables" `Quick test_ex5_tables;
          Alcotest.test_case "phi2 equivalence" `Quick test_ex3_phi2_equiv_phi1 ] );
      ( "example6", [ Alcotest.test_case "join tables" `Quick test_ex6_joins ] );
      ( "example7", [ Alcotest.test_case "restriction" `Quick test_ex7_restriction ] );
      ( "example8", [ Alcotest.test_case "query text" `Quick test_ex8_query_text ] );
      ( "example9",
        [ Alcotest.test_case "optimization" `Quick test_ex9_optimization;
          Alcotest.test_case "semantics" `Quick test_ex9_semantics;
          Alcotest.test_case "M3 compiles" `Quick test_m3_xquery_compilation ] );
      ( "prov",
        [ Alcotest.test_case "rdf export" `Quick test_prov_export;
          Alcotest.test_case "call lineage" `Quick test_call_lineage ] ) ]
