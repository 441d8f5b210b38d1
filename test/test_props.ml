(* Property-based tests (qcheck) for the core invariants:

   - printer/parser round-trips (XML documents, XPath patterns),
   - diff correctness under random appends,
   - strategy agreement (Online = Replay = Rewrite) on random workflows
     with random mapping rules,
   - provenance graphs are DAGs and temporally sound by construction,
   - inheritance closure soundness,
   - algebra laws of the binding tables. *)

open Weblab_xml
open Weblab_workflow
open Weblab_prov
open QCheck

(* ---------- generators ---------- *)

let gen_name = Gen.oneofl [ "A"; "B"; "C"; "D"; "E" ]

let gen_attr_name = Gen.oneofl [ "k"; "v"; "g"; "src" ]

let gen_attr_value = Gen.oneofl [ "1"; "2"; "3"; "x"; "y" ]

let gen_text =
  Gen.oneofl [ "hello"; "a < b"; "x & y"; "déjà vu"; "42"; "word word" ]

(* A random element subtree appended under [parent]. *)
let rec gen_fragment doc parent depth st =
  let name = gen_name st in
  let nattrs = Gen.int_bound 2 st in
  let attrs =
    List.init nattrs (fun _ -> (gen_attr_name st, gen_attr_value st))
    |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)
  in
  let n = Tree.new_element doc ~parent name ~attrs in
  if Gen.bool st then ignore (Tree.new_text doc ~parent:n (gen_text st));
  if depth > 0 then begin
    let kids = Gen.int_bound 2 st in
    for _ = 1 to kids do
      ignore (gen_fragment doc n (depth - 1) st)
    done
  end;
  n

let gen_doc : Tree.t Gen.t =
 fun st ->
  let doc = Orchestrator.initial_document () in
  let kids = 1 + Gen.int_bound 2 st in
  for _ = 1 to kids do
    ignore (gen_fragment doc (Tree.root doc) 2 st)
  done;
  doc

let arb_doc =
  make ~print:(fun d -> Printer.to_string ~indent:true d) gen_doc

(* Random XPath patterns from the printable/parsable fragment. *)
let gen_pred ~var_counter st =
  match Gen.int_bound 4 st with
  | 0 -> Weblab_xpath.Ast.Index (1 + Gen.int_bound 2 st)
  | 1 -> Weblab_xpath.Ast.Exists_attr (gen_attr_name st)
  | 2 ->
    incr var_counter;
    Weblab_xpath.Ast.Bind (Printf.sprintf "x%d" !var_counter,
                           Weblab_xpath.Ast.Attr (gen_attr_name st))
  | 3 ->
    Weblab_xpath.Ast.Cmp (Weblab_xpath.Ast.Attr (gen_attr_name st),
                          Weblab_xpath.Ast.Eq,
                          Weblab_xpath.Ast.Lit (gen_attr_value st))
  | _ ->
    Weblab_xpath.Ast.Exists_path
      [ { Weblab_xpath.Ast.raxis = Weblab_xpath.Ast.Child;
          rtest = Weblab_xpath.Ast.Name (gen_name st) } ]

let gen_pattern : Weblab_xpath.Ast.pattern Gen.t =
 fun st ->
  let var_counter = ref 0 in
  let nsteps = 1 + Gen.int_bound 2 st in
  List.init nsteps (fun _ ->
      let axis =
        if Gen.bool st then Weblab_xpath.Ast.Descendant else Weblab_xpath.Ast.Child
      in
      let npreds = Gen.int_bound 2 st in
      { Weblab_xpath.Ast.axis;
        test = Weblab_xpath.Ast.Name (gen_name st);
        preds = List.init npreds (fun _ -> gen_pred ~var_counter st) })

let arb_pattern = make ~print:Weblab_xpath.Print.pattern_to_string gen_pattern

(* Random append-only services: each appends 1-2 fragments under the root
   (deterministic per generated value). *)
let gen_service i : Service.t Gen.t =
 fun st ->
  let plan = Gen.generate1 ~rand:(Random.State.split st) Gen.unit in
  ignore plan;
  let nfrags = 1 + Gen.int_bound 1 st in
  let seeds = List.init nfrags (fun _ -> Gen.int_bound 1_000_000 st) in
  Service.inproc ~name:(Printf.sprintf "Svc%d" i) ~description:"" (fun doc ->
      List.iter
        (fun seed ->
          let st' = Random.State.make [| seed |] in
          ignore (gen_fragment doc (Tree.root doc) 1 st'))
        seeds)

let gen_rule : Rule.t Gen.t =
 fun st ->
  let shared = Gen.bool st in
  let a1 = gen_attr_name st and a2 = gen_attr_name st in
  let step name preds =
    { Weblab_xpath.Ast.axis = Weblab_xpath.Ast.Descendant;
      test = Weblab_xpath.Ast.Name name; preds }
  in
  let source =
    [ step (gen_name st)
        (if shared then [ Weblab_xpath.Ast.Bind ("x", Weblab_xpath.Ast.Attr a1) ]
         else []) ]
  in
  let target =
    [ step (gen_name st)
        (if shared then [ Weblab_xpath.Ast.Bind ("x", Weblab_xpath.Ast.Attr a2) ]
         else []) ]
  in
  Rule.make ~name:"q" ~source ~target ()

let gen_workflow : (Tree.t * Service.t list * Strategy.rulebook) Gen.t =
 fun st ->
  let doc = gen_doc st in
  let nservices = 1 + Gen.int_bound 3 st in
  let services = List.init nservices (fun i -> gen_service (i + 1) st) in
  let rb =
    List.map
      (fun svc ->
        let nrules = Gen.int_bound 2 st in
        (Service.name svc, List.init nrules (fun _ -> gen_rule st)))
      services
  in
  (doc, services, rb)

let arb_workflow =
  make
    ~print:(fun (doc, services, rb) ->
      Printf.sprintf "doc=%s services=%s rules=%s"
        (Printer.to_string doc)
        (String.concat "," (List.map Service.name services))
        (String.concat "; "
           (List.concat_map (fun (s, rs) ->
                List.map (fun r -> s ^ ":" ^ Rule.to_string r) rs) rb)))
    gen_workflow

(* ---------- properties ---------- *)

let count = 100

let prop_xml_roundtrip =
  Test.make ~name:"printer/parser round-trip" ~count arb_doc (fun doc ->
      let printed = Printer.to_string doc in
      let doc' = Xml_parser.parse printed in
      Tree.equal_subtree doc (Tree.root doc) doc' (Tree.root doc'))

let prop_pattern_roundtrip =
  Test.make ~name:"pattern print/parse round-trip" ~count arb_pattern (fun p ->
      let s = Weblab_xpath.Print.pattern_to_string p in
      Weblab_xpath.Parser.pattern s = p)

let prop_diff_roundtrip =
  Test.make ~name:"diff finds exactly the appended fragments" ~count
    (pair arb_doc (make Gen.(int_bound 1_000_000)))
    (fun (doc, seed) ->
      (* Re-parse to get an independent "old" copy, then append random
         fragments to the original and diff. *)
      let old_doc = Xml_parser.parse (Printer.to_string doc) in
      let st = Random.State.make [| seed |] in
      let added =
        List.init
          (1 + Random.State.int st 3)
          (fun _ -> gen_fragment doc (Tree.root doc) 1 st)
      in
      let result = Diff.diff ~old_doc ~new_doc:doc in
      (* Every genuinely appended fragment root is reported (the greedy
         matcher may attribute equal siblings differently, but the count
         of additions is exact and containment holds). *)
      List.length result.Diff.added = List.length added
      && Diff.contains ~old_doc ~new_doc:doc)

let graph_links g =
  Prov_graph.links g
  |> List.filter (fun l -> not l.Prov_graph.inherited)
  |> List.map (fun l ->
         (l.Prov_graph.from_uri, l.Prov_graph.to_uri, l.Prov_graph.rule))
  |> List.sort compare

let prop_strategy_agreement =
  Test.make ~name:"Online = Replay = Rewrite" ~count:60 arb_workflow
    (fun (doc, services, rb) ->
      let exec, g_online = Engine.run_with_strategy `Online doc services rb in
      let g_replay = Engine.provenance ~strategy:`Replay exec rb in
      let g_rewrite = Engine.provenance ~strategy:`Rewrite exec rb in
      graph_links g_online = graph_links g_replay
      && graph_links g_replay = graph_links g_rewrite)

let prop_graph_invariants =
  Test.make ~name:"graphs are acyclic and temporally sound" ~count:60
    arb_workflow
    (fun (doc, services, rb) ->
      let _, g =
        Engine.run_with_provenance ~inheritance:true doc services rb
      in
      Prov_graph.is_acyclic g && Prov_graph.temporally_sound g)

let prop_monotone_timestamps =
  Test.make ~name:"creation timestamps are monotone along ancestors"
    ~count:60 arb_workflow
    (fun (doc, services, _) ->
      let _ = Orchestrator.execute doc services in
      Doc_state.timestamps_monotonic doc)

let prop_append_only_states =
  Test.make ~name:"document states form a chain d0 ⊑ d1 ⊑ ... ⊑ dn"
    ~count:60 arb_workflow
    (fun (doc, services, _) ->
      let trace = Orchestrator.execute doc services in
      let times = List.map (fun c -> c.Trace.time) (Trace.calls trace) in
      List.for_all
        (fun t ->
          t = 0
          || Doc_state.contains
               ~smaller:(Doc_state.at doc (t - 1))
               ~larger:(Doc_state.at doc t))
        times)

let prop_inheritance_sound =
  Test.make ~name:"inherited links justified by an explicit link" ~count:60
    arb_workflow
    (fun (doc, services, rb) ->
      let exec = Engine.run doc services in
      let g = Engine.provenance exec rb in
      let explicit = graph_links g in
      let g = Inheritance.close doc g in
      let node uri = Tree.find_resource doc uri in
      Prov_graph.links g
      |> List.filter (fun l -> l.Prov_graph.inherited)
      |> List.for_all (fun l ->
             match node l.Prov_graph.from_uri, node l.Prov_graph.to_uri with
             | Some b', Some a' ->
               List.exists
                 (fun (fu, tu, _) ->
                   match node fu, node tu with
                   | Some b, Some a ->
                     (b' = b || Tree.is_ancestor doc ~ancestor:b b')
                     && (a' = a
                         || Tree.is_ancestor doc ~ancestor:a a'
                         || Tree.is_ancestor doc ~ancestor:a' a)
                   | _ -> false)
                 explicit
             | _ -> false))

(* --- reachability index vs BFS on random DAGs --- *)

(* A random DAG over n nodes: edges only from higher to lower ids, so
   acyclicity holds by construction (like provenance links point backwards
   in time). *)
let gen_dag : Prov_graph.t Gen.t =
 fun st ->
  let n = 2 + Gen.int_bound 18 st in
  let g = Prov_graph.create () in
  for i = 1 to n - 1 do
    let edges = Gen.int_bound (min i 3) st in
    for _ = 1 to edges do
      let j = Gen.int_bound (i - 1) st in
      Prov_graph.add_link g
        ~from_uri:(Printf.sprintf "n%d" i)
        ~to_uri:(Printf.sprintf "n%d" j)
    done
  done;
  g

let arb_dag =
  make
    ~print:(fun g ->
      Prov_graph.links g
      |> List.map (fun l ->
             Printf.sprintf "%s->%s" l.Prov_graph.from_uri l.Prov_graph.to_uri)
      |> String.concat " ")
    gen_dag

let prop_reachability_matches_bfs =
  Test.make ~name:"closure index = BFS on random DAGs" ~count arb_dag
    (fun g ->
      let idx = Reachability.build g in
      let nodes =
        Prov_graph.links g
        |> List.concat_map (fun l -> [ l.Prov_graph.from_uri; l.Prov_graph.to_uri ])
        |> List.sort_uniq compare
      in
      List.for_all
        (fun u ->
          Reachability.ancestors idx u = Query.depends_on_transitive g u
          && Reachability.descendants idx u = Query.influences_transitive g u)
        nodes)

(* --- happened-before on random series-parallel workflows --- *)

let noop_service i =
  Service.inproc ~name:(Printf.sprintf "N%d" i) ~description:"" (fun doc ->
      ignore (Tree.new_element doc ~parent:(Tree.root doc) "F"))

let gen_sp_wf : Parallel.wf Gen.t =
 fun st ->
  let counter = ref 0 in
  let rec go depth =
    let fresh () =
      incr counter;
      Parallel.Call (noop_service !counter)
    in
    if depth = 0 then fresh ()
    else
      match Gen.int_bound 3 st with
      | 0 -> fresh ()
      | 1 -> Parallel.Seq (List.init (1 + Gen.int_bound 2 st) (fun _ -> go (depth - 1)))
      | 2 -> Parallel.Par (List.init (2 + Gen.int_bound 1 st) (fun _ -> go (depth - 1)))
      | _ -> Parallel.Nested ("sub", go (depth - 1))
  in
  go 3

let arb_sp_wf =
  make
    ~print:(fun wf -> Wf_parser.to_string wf)
    gen_sp_wf

let prop_happened_before_strict_order =
  Test.make ~name:"happened-before is a strict partial order" ~count:60
    arb_sp_wf
    (fun wf ->
      let doc = Orchestrator.initial_document () in
      let exec = Parallel.execute doc wf in
      let times =
        Trace.calls exec.Parallel.trace
        |> List.filter_map (fun (c : Trace.call) ->
               if c.Trace.time > 0 then Some c.Trace.time else None)
      in
      let hb = Parallel.happened_before exec in
      (* irreflexive *)
      List.for_all (fun t -> not (hb t t)) times
      (* antisymmetric *)
      && List.for_all
           (fun a -> List.for_all (fun b -> not (hb a b && hb b a)) times)
           times
      (* transitive *)
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 List.for_all
                   (fun c -> not (hb a b && hb b c) || hb a c)
                   times)
               times)
           times
      (* consistent with the schedule: hb implies smaller timestamp *)
      && List.for_all
           (fun a -> List.for_all (fun b -> not (hb a b) || a < b) times)
           times)

let prop_parallel_strategies_agree =
  Test.make ~name:"replay = rewrite under happened-before" ~count:40
    (pair arb_sp_wf (make Gen.(int_bound 1000)))
    (fun (wf, _salt) ->
      let run strategy =
        let doc = Orchestrator.initial_document () in
        (* one generic rule on every service: F elements depend on other
           F elements that happened before *)
        let rule = Rule_parser.parse "q: //F ==> //F" in
        let services =
          let rec names = function
            | Parallel.Call s -> [ Service.name s ]
            | Parallel.Seq l | Parallel.Par l -> List.concat_map names l
            | Parallel.Nested (_, b) -> names b
          in
          names wf
        in
        let rb = List.map (fun s -> (s, [ rule ])) services in
        let _, _, g = Engine.run_parallel ~strategy doc wf rb in
        graph_links g
      in
      run `Replay = run `Rewrite)

(* --- extended pattern fragment round-trips --- *)

let gen_extended_pattern : Weblab_xpath.Ast.pattern Gen.t =
 fun st ->
  let open Weblab_xpath.Ast in
  let axis () =
    match Gen.int_bound 6 st with
    | 0 | 1 -> Descendant
    | 2 | 3 -> Child
    | 4 -> Parent
    | 5 -> Following_sibling
    | _ -> Ancestor
  in
  let pred () =
    match Gen.int_bound 4 st with
    | 0 -> Exists_attr (gen_attr_name st)
    | 1 -> Cmp (Count [ { raxis = Child; rtest = Name (gen_name st) } ],
                Ge, Num (Gen.int_bound 3 st))
    | 2 -> Cmp (Position, Eq, Last)
    | 3 -> Fn_bool ("contains", [ Attr (gen_attr_name st); Lit (gen_attr_value st) ])
    | _ -> Cmp (Strlen (Attr (gen_attr_name st)), Gt, Num (Gen.int_bound 5 st))
  in
  let first =
    { axis = (if Gen.bool st then Descendant else Child);
      test = Name (gen_name st);
      preds = (if Gen.bool st then [ pred () ] else []) }
  in
  let rest =
    List.init (Gen.int_bound 2 st) (fun _ ->
        { axis = axis (); test = Name (gen_name st);
          preds = (if Gen.bool st then [ pred () ] else []) })
  in
  first :: rest

let prop_extended_pattern_roundtrip =
  Test.make ~name:"extended pattern print/parse round-trip" ~count
    (make ~print:Weblab_xpath.Print.pattern_to_string gen_extended_pattern)
    (fun p ->
      let s = Weblab_xpath.Print.pattern_to_string p in
      Weblab_xpath.Parser.pattern s = p)

(* --- quality propagation is monotone --- *)

let prop_quality_monotone =
  Test.make ~name:"lowering a source never raises any score" ~count:60
    (pair arb_dag (make Gen.(int_bound 1000)))
    (fun (g, salt) ->
      let nodes =
        Prov_graph.links g
        |> List.concat_map (fun l -> [ l.Prov_graph.from_uri; l.Prov_graph.to_uri ])
        |> List.sort_uniq compare
      in
      assume (nodes <> []);
      (* label everything so propagate covers it *)
      List.iteri
        (fun i u ->
          Prov_graph.set_label g u { Trace.service = "S"; time = i })
        nodes;
      let victim = List.nth nodes (salt mod List.length nodes) in
      let high = Quality.propagate g ~sources:[ (victim, 0.9) ] in
      let low = Quality.propagate g ~sources:[ (victim, 0.2) ] in
      List.for_all2
        (fun (u1, s1) (u2, s2) -> u1 = u2 && s2 <= s1 +. 1e-9)
        high low)

(* --- compiled FLWOR queries survive the text round-trip --- *)

let has_index (p : Weblab_xpath.Ast.pattern) =
  List.exists
    (fun (st : Weblab_xpath.Ast.step) ->
      List.exists
        (function Weblab_xpath.Ast.Index _ -> true | _ -> false)
        st.Weblab_xpath.Ast.preds)
    p

let prop_pushdown_preserves_semantics =
  Test.make ~name:"selection pushdown preserves semantics" ~count
    (pair arb_pattern arb_doc)
    (fun (pat, doc) ->
      assume (not (has_index pat));
      let q = Weblab_xquery.Xq_compile.compile_pattern_query pat in
      Weblab_relalg.Table.equal
        (Weblab_xquery.Xq_eval.run doc q)
        (Weblab_xquery.Xq_eval.run doc (Weblab_xquery.Xq_optimize.push_filters q)))

let prop_flwor_text_roundtrip =
  Test.make ~name:"compiled FLWOR survives print/parse" ~count
    (pair arb_pattern arb_doc)
    (fun (pat, doc) ->
      assume (not (has_index pat));
      let q = Weblab_xquery.Xq_compile.compile_pattern_query pat in
      let q' = Weblab_xquery.Xq_parser.parse (Weblab_xquery.Xq_print.to_string q) in
      Weblab_relalg.Table.equal
        (Weblab_xquery.Xq_eval.run doc q)
        (Weblab_xquery.Xq_eval.run doc q'))

let prop_compiled_equals_native =
  Test.make ~name:"compiled FLWOR = native embeddings" ~count
    (pair arb_pattern arb_doc)
    (fun (pat, doc) ->
      assume (not (has_index pat));
      let native = Weblab_xpath.Eval.eval doc pat in
      let cols =
        List.filter (fun c -> c <> "node")
          (Weblab_relalg.Table.columns native)
      in
      let compiled =
        Weblab_xquery.Xq_eval.run doc
          (Weblab_xquery.Xq_compile.compile_pattern_query ~require_uri:true pat)
      in
      Weblab_relalg.Table.equal
        (Weblab_relalg.Table.project native cols)
        compiled)

(* --- RDF store round trip on random stores --- *)

let gen_store : Weblab_rdf.Triple_store.t Gen.t =
 fun st ->
  let open Weblab_rdf in
  let store = Triple_store.create () in
  let term () =
    match Gen.int_bound 3 st with
    | 0 -> Term.iri ("urn:x-" ^ gen_name st)
    | 1 -> Term.lit (gen_text st)
    | 2 -> Term.int_lit (Gen.int_bound 100 st)
    | _ -> Term.bnode (gen_name st)
  in
  for _ = 1 to 1 + Gen.int_bound 10 st do
    let s = match Gen.int_bound 1 st with
      | 0 -> Term.iri ("urn:s-" ^ gen_name st)
      | _ -> Term.bnode (gen_name st)
    in
    Triple_store.add store (s, Term.iri ("urn:p-" ^ gen_name st), term ())
  done;
  store

let prop_ntriples_roundtrip =
  Test.make ~name:"N-Triples round-trip on random stores" ~count
    (make ~print:Weblab_rdf.Turtle.to_ntriples gen_store)
    (fun store ->
      let open Weblab_rdf in
      let store' = Turtle.parse_ntriples (Turtle.to_ntriples store) in
      Triple_store.size store = Triple_store.size store'
      && List.for_all (Triple_store.mem store') (Triple_store.triples store))

(* --- robustness fuzzing: parsers only fail through their own errors --- *)

let gen_garbage : string Gen.t =
 fun st ->
  let n = Gen.int_bound 60 st in
  String.init n (fun _ ->
      match Gen.int_bound 12 st with
      | 0 -> '<'
      | 1 -> '>'
      | 2 -> '/'
      | 3 -> '&'
      | 4 -> '"'
      | 5 -> '\''
      | 6 -> '['
      | 7 -> ']'
      | 8 -> ' '
      | 9 -> '='
      | 10 -> Char.chr (97 + Gen.int_bound 25 st)
      | 11 -> Char.chr (48 + Gen.int_bound 9 st)
      | _ -> Char.chr (Gen.int_bound 255 st))

let prop_xml_parser_total =
  Test.make ~name:"XML parser is total (Error or a document)" ~count:300
    (make ~print:(fun s -> String.escaped s) gen_garbage)
    (fun s ->
      match Xml_parser.parse s with
      | _ -> true
      | exception Xml_parser.Error _ -> true)

let prop_pattern_parser_total =
  Test.make ~name:"pattern parser is total" ~count:300
    (make ~print:(fun s -> String.escaped s) gen_garbage)
    (fun s ->
      match Weblab_xpath.Parser.pattern s with
      | _ -> true
      | exception Weblab_xpath.Parser.Error _ -> true)

let prop_rule_parser_total =
  Test.make ~name:"rule parser is total" ~count:300
    (make ~print:(fun s -> String.escaped s) gen_garbage)
    (fun s ->
      match Rule_parser.parse s with
      | _ -> true
      | exception Rule_parser.Error _ -> true)

let prop_sparql_parser_total =
  Test.make ~name:"SPARQL parser is total" ~count:300
    (make ~print:(fun s -> String.escaped s) gen_garbage)
    (fun s ->
      match Weblab_rdf.Sparql.parse s with
      | _ -> true
      | exception Weblab_rdf.Sparql.Error _ -> true)

let prop_wf_parser_total =
  Test.make ~name:"workflow parser is total" ~count:300
    (make ~print:(fun s -> String.escaped s) gen_garbage)
    (fun s ->
      match Wf_parser.parse ~resolve:(fun _ -> None) s with
      | _ -> true
      | exception (Wf_parser.Error _ | Wf_parser.Unknown_service _) -> true)

(* --- algebra laws --- *)

let gen_small_table : Weblab_relalg.Table.t Gen.t =
 fun st ->
  let open Weblab_relalg in
  let cols =
    match Gen.int_bound 2 st with
    | 0 -> [ "a"; "b" ]
    | 1 -> [ "b"; "c" ]
    | _ -> [ "a"; "c" ]
  in
  let t = Table.create cols in
  let rows = Gen.int_bound 5 st in
  for _ = 1 to rows do
    Table.add_row t
      (Array.of_list
         (List.map (fun _ -> Value.Str (gen_attr_value st)) cols))
  done;
  t

let arb_table = make ~print:Weblab_relalg.Table.to_string gen_small_table

let prop_join_commutative =
  Test.make ~name:"natural join commutative (as sets)" ~count
    (pair arb_table arb_table)
    (fun (a, b) ->
      let open Weblab_relalg in
      Table.equal
        (Table.distinct (Table.natural_join a b))
        (Table.distinct (Table.natural_join b a)))

let prop_union_commutative =
  Test.make ~name:"union commutative" ~count (pair arb_table arb_table)
    (fun (a, b) ->
      let open Weblab_relalg in
      assume (List.sort compare (Table.columns a)
              = List.sort compare (Table.columns b));
      Table.equal (Table.union a b) (Table.union b a))

let prop_project_idempotent =
  Test.make ~name:"projection idempotent" ~count arb_table (fun t ->
      let open Weblab_relalg in
      let cols = Table.columns t in
      Table.equal (Table.project t cols) (Table.project (Table.project t cols) cols))

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [ ( "roundtrips",
        to_alcotest [ prop_xml_roundtrip; prop_pattern_roundtrip ] );
      ( "diff", to_alcotest [ prop_diff_roundtrip ] );
      ( "strategies",
        to_alcotest
          [ prop_strategy_agreement; prop_graph_invariants;
            prop_monotone_timestamps; prop_append_only_states;
            prop_inheritance_sound ] );
      ( "algebra",
        to_alcotest
          [ prop_join_commutative; prop_union_commutative;
            prop_project_idempotent ] );
      ( "robustness",
        to_alcotest
          [ prop_xml_parser_total; prop_pattern_parser_total;
            prop_rule_parser_total; prop_sparql_parser_total;
            prop_wf_parser_total ] );
      ( "extensions",
        to_alcotest
          [ prop_reachability_matches_bfs; prop_happened_before_strict_order;
            prop_parallel_strategies_agree; prop_extended_pattern_roundtrip;
            prop_flwor_text_roundtrip; prop_compiled_equals_native;
            prop_pushdown_preserves_semantics; prop_quality_monotone;
            prop_ntriples_roundtrip ] ) ]
