(* Tests for the §8 future-work extensions: parallel/nested workflows with
   control-flow channels, provenance views, the reachability index,
   PROV-XML export and trace persistence. *)

open Weblab_xml
open Weblab_workflow
open Weblab_prov

let check = Alcotest.check
let check_int = check Alcotest.int
let check_str = check Alcotest.string
let check_bool = check Alcotest.bool

let pairs = Alcotest.(list (pair string string))

(* ---------- parallel workflows ---------- *)

(* Branch service: appends one <F branch="name"> fragment with a @src
   pointing at every N resource it can "see" in the whole arena (services
   are honest here; the point is what *provenance* says). *)
let brancher name =
  Service.inproc ~name ~description:"" (fun doc ->
      let f =
        Tree.new_element doc ~parent:(Tree.root doc) "F"
          ~attrs:[ ("branch", name) ]
      in
      Tree.set_uri doc f ("f-" ^ name))

(* Joiner: appends a <J> fragment. *)
let joiner =
  Service.inproc ~name:"Join" ~description:"" (fun doc ->
      let j = Tree.new_element doc ~parent:(Tree.root doc) "J" in
      Tree.set_uri doc j "j1")

(* Rule attached to every service: the produced F/J depends on all F
   resources existing "before" the call. *)
let dep_rule = Rule_parser.parse "D: //F[$x := @branch] ==> //J"
let f_rule = Rule_parser.parse "E: //F ==> //F[$x := @branch]"

let par_workflow () =
  Parallel.(Seq [ Par [ Call (brancher "A"); Call (brancher "B") ];
                  Call joiner ])

let test_parallel_schedule () =
  let doc = Orchestrator.initial_document () in
  let exec = Parallel.execute doc (par_workflow ()) in
  let calls = Trace.calls exec.Parallel.trace in
  check_int "four calls (incl. Source)" 4 (List.length calls);
  (* The join must be scheduled after both branches. *)
  let time_of name =
    (List.find (fun (c : Trace.call) -> c.Trace.service = name) calls).Trace.time
  in
  check_bool "join last" true
    (time_of "Join" > time_of "A" && time_of "Join" > time_of "B")

let test_happened_before_relation () =
  let doc = Orchestrator.initial_document () in
  let exec = Parallel.execute doc (par_workflow ()) in
  let t name =
    (List.find (fun (c : Trace.call) -> c.Trace.service = name)
       (Trace.calls exec.Parallel.trace)).Trace.time
  in
  let hb = Parallel.happened_before exec in
  (* initial state precedes everything *)
  check_bool "0 -> A" true (hb 0 (t "A"));
  (* both branches precede the join *)
  check_bool "A -> Join" true (hb (t "A") (t "Join"));
  check_bool "B -> Join" true (hb (t "B") (t "Join"));
  (* sibling branches are concurrent, in both directions *)
  check_bool "A || B" false (hb (t "A") (t "B"));
  check_bool "B || A" false (hb (t "B") (t "A"));
  (* irreflexive *)
  check_bool "A not before itself" false (hb (t "A") (t "A"))

let test_channels_recorded () =
  let doc = Orchestrator.initial_document () in
  let exec = Parallel.execute doc (par_workflow ()) in
  let t name =
    (List.find (fun (c : Trace.call) -> c.Trace.service = name)
       (Trace.calls exec.Parallel.trace)).Trace.time
  in
  check_str "branch A channel" "/par1/"
    (Option.get (Parallel.channel_of exec (t "A")));
  check_str "branch B channel" "/par2/"
    (Option.get (Parallel.channel_of exec (t "B")));
  check_str "join channel" "/" (Option.get (Parallel.channel_of exec (t "Join")));
  (* resources carry @ch *)
  let fa = Option.get (Tree.find_resource doc "f-A") in
  check_str "@ch" "/par1/" (Option.get (Tree.attr doc fa "ch"))

let test_parallel_provenance_excludes_siblings () =
  let doc = Orchestrator.initial_document () in
  let rb = [ ("A", [ f_rule ]); ("B", [ f_rule ]); ("Join", [ dep_rule ]) ] in
  let _, pexec, g = Engine.run_parallel doc (par_workflow ()) rb in
  ignore pexec;
  (* The join depends on both branches. *)
  check_bool "j1 -> f-A" true (Prov_graph.has_link g ~from_uri:"j1" ~to_uri:"f-A");
  check_bool "j1 -> f-B" true (Prov_graph.has_link g ~from_uri:"j1" ~to_uri:"f-B");
  (* Sibling branches must NOT link to each other, even though one of them
     has a smaller timestamp. *)
  check_bool "no f-A -> f-B" false
    (Prov_graph.has_link g ~from_uri:"f-A" ~to_uri:"f-B");
  check_bool "no f-B -> f-A" false
    (Prov_graph.has_link g ~from_uri:"f-B" ~to_uri:"f-A")

let test_sequential_inference_would_cross_branches () =
  (* Contrast: inferring with the plain timestamp order (ignoring
     channels) produces a spurious cross-branch link — demonstrating why
     §8 needs channel metadata. *)
  let doc = Orchestrator.initial_document () in
  let rb = [ ("A", [ f_rule ]); ("B", [ f_rule ]); ("Join", [ dep_rule ]) ] in
  let pexec = Parallel.execute doc (par_workflow ()) in
  let g_wrong =
    Strategy.infer ~strategy:`Replay ~doc ~trace:pexec.Parallel.trace rb
  in
  let crossing =
    Prov_graph.has_link g_wrong ~from_uri:"f-A" ~to_uri:"f-B"
    || Prov_graph.has_link g_wrong ~from_uri:"f-B" ~to_uri:"f-A"
  in
  check_bool "sequential inference crosses branches" true crossing

let test_parallel_strategies_agree () =
  let doc1 = Orchestrator.initial_document () in
  let rb = [ ("A", [ f_rule ]); ("B", [ f_rule ]); ("Join", [ dep_rule ]) ] in
  let _, _, g1 = Engine.run_parallel ~strategy:`Replay doc1 (par_workflow ()) rb in
  let doc2 = Orchestrator.initial_document () in
  let _, _, g2 = Engine.run_parallel ~strategy:`Rewrite doc2 (par_workflow ()) rb in
  let key g =
    Prov_graph.links g
    |> List.map (fun l -> (l.Prov_graph.from_uri, l.Prov_graph.to_uri))
    |> List.sort_uniq compare
  in
  check pairs "replay = rewrite under channels" (key g1) (key g2)

let test_nested_workflow_channels () =
  let doc = Orchestrator.initial_document () in
  let wf =
    Parallel.(Seq [ Nested ("prep", Call (brancher "A")); Call joiner ])
  in
  let exec = Parallel.execute doc wf in
  let t name =
    (List.find (fun (c : Trace.call) -> c.Trace.service = name)
       (Trace.calls exec.Parallel.trace)).Trace.time
  in
  check_str "nested channel" "/prep/" (Option.get (Parallel.channel_of exec (t "A")));
  let hb = Parallel.happened_before exec in
  check_bool "nested precedes join" true (hb (t "A") (t "Join"))

let test_deep_parallel_nesting () =
  (* Par inside Par: ((A || B); C) || D, then Join. *)
  let doc = Orchestrator.initial_document () in
  let wf =
    Parallel.(
      Seq
        [ Par
            [ Seq [ Par [ Call (brancher "A"); Call (brancher "B") ];
                    Call (brancher "C") ];
              Call (brancher "D") ];
          Call joiner ])
  in
  let exec = Parallel.execute doc wf in
  let t name =
    (List.find (fun (c : Trace.call) -> c.Trace.service = name)
       (Trace.calls exec.Parallel.trace)).Trace.time
  in
  let hb = Parallel.happened_before exec in
  check_bool "A -> C" true (hb (t "A") (t "C"));
  check_bool "B -> C" true (hb (t "B") (t "C"));
  check_bool "C || D" false (hb (t "C") (t "D") || hb (t "D") (t "C"));
  check_bool "A || D" false (hb (t "A") (t "D") || hb (t "D") (t "A"));
  check_bool "everything -> Join" true
    (List.for_all (fun n -> hb (t n) (t "Join")) [ "A"; "B"; "C"; "D" ])

(* ---------- workflow definition language ---------- *)

let resolve name =
  if List.mem name [ "A"; "B"; "C"; "Join" ] then
    Some (if name = "Join" then joiner else brancher name)
  else None

let test_wf_parser_shapes () =
  let parse s = Wf_parser.parse ~resolve s in
  (match parse "A" with
   | Parallel.Call s -> check_str "single" "A" (Service.name s)
   | _ -> Alcotest.fail "expected Call");
  (match parse "A; B; Join" with
   | Parallel.Seq [ _; _; _ ] -> ()
   | _ -> Alcotest.fail "expected 3-part Seq");
  (match parse "A | B" with
   | Parallel.Par [ _; _ ] -> ()
   | _ -> Alcotest.fail "expected Par");
  (match parse "(A | B); Join" with
   | Parallel.Seq [ Parallel.Par _; Parallel.Call _ ] -> ()
   | _ -> Alcotest.fail "expected Seq[Par; Call]");
  match parse "prep:(A; B) | C" with
  | Parallel.Par [ Parallel.Nested ("prep", Parallel.Seq _); Parallel.Call _ ] -> ()
  | _ -> Alcotest.fail "expected nested"

let test_wf_parser_precedence () =
  (* ';' binds looser than '|': A | B; C  =  (A|B); C *)
  match Wf_parser.parse ~resolve "A | B; Join" with
  | Parallel.Seq [ Parallel.Par _; Parallel.Call _ ] -> ()
  | _ -> Alcotest.fail "expected (A|B); Join"

let test_wf_parser_roundtrip () =
  List.iter
    (fun src ->
      let wf = Wf_parser.parse ~resolve src in
      let printed = Wf_parser.to_string wf in
      check_bool (src ^ " -> " ^ printed) true
        (Wf_parser.to_string (Wf_parser.parse ~resolve printed) = printed))
    [ "A"; "A; B"; "A | B"; "(A; B) | C; Join"; "prep:(A | B); Join" ]

let test_wf_parser_comments_and_errors () =
  (match Wf_parser.parse ~resolve "A; # trailing comment
 B" with
   | Parallel.Seq [ _; _ ] -> ()
   | _ -> Alcotest.fail "comment handling");
  let expect_err s =
    match Wf_parser.parse ~resolve s with
    | _ -> Alcotest.failf "expected error for %S" s
    | exception (Wf_parser.Error _ | Wf_parser.Unknown_service _) -> ()
  in
  expect_err "";
  expect_err "A;";
  expect_err "A |";
  expect_err "(A";
  expect_err "Ghost";
  expect_err "A B"

let test_wf_parser_executes () =
  (* A parsed workflow executes identically to the hand-built one. *)
  let doc1 = Orchestrator.initial_document () in
  let wf1 = Wf_parser.parse ~resolve "(A | B); Join" in
  let e1 = Parallel.execute doc1 wf1 in
  let doc2 = Orchestrator.initial_document () in
  let e2 = Parallel.execute doc2 (par_workflow ()) in
  check (Alcotest.list Alcotest.string) "same calls"
    (List.map (fun c -> c.Trace.service) (Trace.calls e1.Parallel.trace))
    (List.map (fun c -> c.Trace.service) (Trace.calls e2.Parallel.trace))

(* ---------- provenance views ---------- *)

let view_graph () =
  let g = Prov_graph.create () in
  let label u s t = Prov_graph.set_label g u { Trace.service = s; time = t } in
  label "src" "Source" 0;
  label "norm" "Normaliser" 1;
  label "lang" "LanguageExtractor" 2;
  label "trans" "Translator" 3;
  label "sum" "Summarizer" 4;
  Prov_graph.add_link g ~rule:"m" ~from_uri:"norm" ~to_uri:"src";
  Prov_graph.add_link g ~rule:"m" ~from_uri:"lang" ~to_uri:"norm";
  Prov_graph.add_link g ~rule:"m" ~from_uri:"trans" ~to_uri:"lang";
  Prov_graph.add_link g ~rule:"m" ~from_uri:"sum" ~to_uri:"trans";
  g

let translation_view =
  Views.by_services
    [ ("Translation", [ "Normaliser"; "LanguageExtractor"; "Translator" ]) ]

let test_view_projection () =
  let g = view_graph () in
  let v = Views.project g translation_view in
  (* Intra-module links are hidden; boundary links survive. *)
  check_bool "internal hidden" false
    (Prov_graph.has_link v ~from_uri:"lang" ~to_uri:"norm");
  check_bool "entry kept" true (Prov_graph.has_link v ~from_uri:"norm" ~to_uri:"src");
  check_bool "exit kept" true (Prov_graph.has_link v ~from_uri:"sum" ~to_uri:"trans");
  (* Members are relabeled with the composite activity. *)
  (match Prov_graph.label v "lang" with
   | Some c ->
     check_str "composite name" "Translation" c.Trace.service;
     check_int "composite time = first member" 1 c.Trace.time
   | None -> Alcotest.fail "lang lost its label");
  check_bool "still acyclic" true (Prov_graph.is_acyclic v);
  check_bool "still sound" true (Prov_graph.temporally_sound v)

let test_module_graph () =
  let g = view_graph () in
  let edges = Views.module_graph g translation_view in
  check pairs "module edges"
    [ ("Summarizer@t4", "Translation"); ("Translation", "Source@t0") ]
    (List.sort compare edges)

let test_view_identity () =
  let g = view_graph () in
  let v = Views.project g (fun _ -> None) in
  check_int "same links" (Prov_graph.size g) (Prov_graph.size v)

(* ---------- reachability index ---------- *)

let chain_graph n =
  let g = Prov_graph.create () in
  for i = 1 to n - 1 do
    Prov_graph.add_link g
      ~from_uri:(Printf.sprintf "n%d" (i + 1))
      ~to_uri:(Printf.sprintf "n%d" i)
  done;
  g

let test_reachability_chain () =
  let g = chain_graph 50 in
  let idx = Reachability.build g in
  check_int "nodes" 50 (Reachability.size idx);
  check_bool "end reaches start" true (Reachability.depends_on idx ~on:"n1" "n50");
  check_bool "start does not reach end" false
    (Reachability.depends_on idx ~on:"n50" "n1");
  check_int "ancestors of n50" 49 (List.length (Reachability.ancestors idx "n50"));
  check_int "descendants of n1" 49 (List.length (Reachability.descendants idx "n1"));
  check_int "no self" 0 (List.length (Reachability.ancestors idx "n1"))

let test_reachability_matches_bfs () =
  (* On a real pipeline graph the index must agree with Query's BFS. *)
  let doc = Weblab_services.Workload.make_document ~units:3 ~seed:31 () in
  let services = Weblab_services.Workload.standard_pipeline ~extended:true () in
  let rb =
    List.filter_map
      (fun svc ->
        Weblab_services.Catalog.find (Service.name svc)
        |> Option.map (fun e ->
               ( Service.name svc,
                 List.map Rule_parser.parse e.Weblab_services.Catalog.rules )))
      services
  in
  let _, g = Engine.run_with_provenance doc services rb in
  let idx = Reachability.build g in
  List.iter
    (fun (uri, _) ->
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "ancestors of %s" uri)
        (Query.depends_on_transitive g uri)
        (Reachability.ancestors idx uri))
    (Prov_graph.labeled_resources g)

let test_reachability_unknown_uri () =
  let idx = Reachability.build (chain_graph 3) in
  check_bool "unknown" false (Reachability.depends_on idx ~on:"n1" "ghost");
  check_int "empty" 0 (List.length (Reachability.ancestors idx "ghost"))

(* ---------- RDF round-trip ---------- *)

let test_graph_rdf_roundtrip () =
  let e = Weblab_scenario.Paper.run () in
  let g = Weblab_scenario.Figures.explicit_graph e in
  let g' = Prov_export.of_store (Prov_export.to_store g) in
  let links gr =
    Prov_graph.links gr
    |> List.map (fun l -> (l.Prov_graph.from_uri, l.Prov_graph.to_uri, l.Prov_graph.rule))
    |> List.sort compare
  in
  check (Alcotest.list (Alcotest.triple Alcotest.string Alcotest.string Alcotest.string))
    "links survive" (links g) (links g');
  check_int "labels survive"
    (List.length (Prov_graph.labeled_resources g))
    (List.length (Prov_graph.labeled_resources g'));
  List.iter
    (fun (uri, call) ->
      match Prov_graph.label g' uri with
      | Some call' ->
        check_bool ("label of " ^ uri) true (call = call')
      | None -> Alcotest.failf "label of %s lost" uri)
    (Prov_graph.labeled_resources g)

(* ---------- PROV-XML ---------- *)

let test_prov_xml_wellformed () =
  let e = Weblab_scenario.Paper.run () in
  let g = Weblab_scenario.Figures.explicit_graph e in
  let xml = Prov_export.to_prov_xml g in
  let doc = Xml_parser.parse xml in
  check_str "root" "prov:document" (Tree.name doc (Tree.root doc));
  (* count top-level declarations only (refs inside relation elements
     reuse the same element names) *)
  let count name =
    Tree.children doc (Tree.root doc)
    |> List.filter (fun n -> Tree.is_element doc n && Tree.name doc n = name)
    |> List.length
  in
  check_int "entities" 6 (count "prov:entity");
  check_int "activities" 4 (count "prov:activity");
  check_int "generations" 6 (count "prov:wasGeneratedBy");
  check_int "derivations" 3 (count "prov:wasDerivedFrom")

(* ---------- trace persistence ---------- *)

let test_trace_xml_roundtrip () =
  let e = Weblab_scenario.Paper.run () in
  let xml = Trace_io.to_xml e.Weblab_scenario.Paper.trace in
  let trace' = Trace_io.of_xml xml in
  check_bool "round-trip" true (Trace_io.equal e.Weblab_scenario.Paper.trace trace')

let test_trace_loaded_inference () =
  (* Provenance can be inferred from a *reloaded* trace — the Request
     Manager scenario of Figure 5: trace in the store, document in the
     repository. *)
  let e = Weblab_scenario.Paper.run () in
  let trace' = Trace_io.of_xml (Trace_io.to_xml e.Weblab_scenario.Paper.trace) in
  let g =
    Strategy.infer ~strategy:`Rewrite ~doc:e.Weblab_scenario.Paper.doc
      ~trace:trace' e.Weblab_scenario.Paper.rulebook
  in
  let links =
    Prov_graph.links g
    |> List.map (fun l -> (l.Prov_graph.from_uri, l.Prov_graph.to_uri))
    |> List.sort_uniq compare
  in
  check pairs "same provenance from reloaded trace"
    [ ("r4", "r3"); ("r6", "r5"); ("r8", "r4") ]
    links

let test_full_reload_inference () =
  (* The complete Figure 5 story: document and trace persisted, reloaded
     (losing all arena state), timestamps restored, provenance inferred —
     identical to inference over the live execution. *)
  let doc = Weblab_services.Workload.make_document ~units:2 ~seed:77 () in
  let services = Weblab_services.Workload.standard_pipeline ~extended:true () in
  let trace = Orchestrator.execute doc services in
  let rb =
    List.filter_map
      (fun svc ->
        Weblab_services.Catalog.find (Service.name svc)
        |> Option.map (fun e ->
               ( Service.name svc,
                 List.map Rule_parser.parse e.Weblab_services.Catalog.rules )))
      services
  in
  let live = Strategy.infer ~strategy:`Rewrite ~doc ~trace rb in
  (* persist + reload *)
  let doc' = Xml_parser.parse (Printer.to_string doc) in
  Doc_state.restore_timestamps doc';
  let trace' = Trace_io.of_xml (Trace_io.to_xml trace) in
  let reloaded = Strategy.infer ~strategy:`Rewrite ~doc:doc' ~trace:trace' rb in
  let key g =
    Prov_graph.links g
    |> List.map (fun l -> (l.Prov_graph.from_uri, l.Prov_graph.to_uri, l.Prov_graph.rule))
    |> List.sort_uniq compare
  in
  check (Alcotest.list (Alcotest.triple Alcotest.string Alcotest.string Alcotest.string))
    "live = reloaded" (key live) (key reloaded);
  check_bool "timestamps restored exactly" true
    (Doc_state.timestamps_monotonic doc')

let test_restore_timestamps_values () =
  let e = Weblab_scenario.Paper.run () in
  let doc' =
    Xml_parser.parse (Printer.to_string e.Weblab_scenario.Paper.doc)
  in
  Doc_state.restore_timestamps doc';
  let created uri = Tree.created doc' (Option.get (Tree.find_resource doc' uri)) in
  check_int "r3 initial" 0 (created "r3");
  check_int "r4 at t1" 1 (created "r4");
  check_int "r6 at t2" 2 (created "r6");
  check_int "r8 at t3" 3 (created "r8");
  (* r8's unlabeled children inherit t3 *)
  let r8 = Option.get (Tree.find_resource doc' "r8") in
  List.iter
    (fun k -> check_int "child of r8" 3 (Tree.created doc' k))
    (Tree.children doc' r8)

let test_trace_rdf_store () =
  let e = Weblab_scenario.Paper.run () in
  let store = Trace_io.to_store e.Weblab_scenario.Paper.trace in
  let open Weblab_rdf in
  (* 6 resources generated in total (r1, r3, r4, r5, r6, r8) *)
  check_int "generated triples" 6
    (Triple_store.count store (None, Some Trace_io.generated_pred, None));
  (* queryable: what did the call at t1 generate? *)
  let t =
    Sparql.run store
      "PREFIX wl: <http://weblab.ow2.org/prov#> SELECT ?r WHERE { \
       <http://weblab.ow2.org/prov#call/Normaliser-1> wl:generated ?r }"
  in
  check_int "normaliser outputs" 2 (Weblab_relalg.Table.cardinality t)

let test_trace_malformed () =
  let expect input =
    match Trace_io.of_xml input with
    | _ -> Alcotest.failf "expected Malformed for %s" input
    | exception Trace_io.Malformed _ -> ()
  in
  expect "<Wrong/>";
  expect "<ExecutionTrace><Call/></ExecutionTrace>";
  expect "<ExecutionTrace><Call service='S' time='x'/></ExecutionTrace>";
  expect "not xml"

(* ---------- on-disk repository ---------- *)

let with_temp_repo f =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "weblab-repo-%d" (Unix.getpid () + Random.int 100000))
  in
  Fun.protect
    ~finally:(fun () ->
      (* best-effort cleanup *)
      if Sys.file_exists root then begin
        Sys.readdir root |> Array.iter (fun id ->
            let d = Filename.concat root id in
            if Sys.is_directory d then begin
              Sys.readdir d |> Array.iter (fun f -> Sys.remove (Filename.concat d f));
              Sys.rmdir d
            end
            else Sys.remove d);
        Sys.rmdir root
      end)
    (fun () -> f (Repository.open_at root))

let make_exec () =
  let doc = Weblab_services.Workload.make_document ~units:2 ~seed:41 () in
  let services = Weblab_services.Workload.standard_pipeline () in
  let rb =
    List.filter_map
      (fun svc ->
        Weblab_services.Catalog.find (Service.name svc)
        |> Option.map (fun e ->
               ( Service.name svc,
                 List.map Rule_parser.parse e.Weblab_services.Catalog.rules )))
      services
  in
  (Engine.run doc services, rb)

let graph_key g =
  Prov_graph.links g
  |> List.map (fun l -> (l.Prov_graph.from_uri, l.Prov_graph.to_uri))
  |> List.sort_uniq compare

let test_repository_roundtrip () =
  with_temp_repo (fun repo ->
      let exec, rb = make_exec () in
      Repository.store repo ~id:"e1" exec;
      check (Alcotest.list Alcotest.string) "listed" [ "e1" ]
        (Repository.executions repo);
      let loaded = Repository.load repo ~id:"e1" in
      let g_live = Engine.provenance exec rb in
      let g_loaded = Engine.provenance loaded rb in
      check pairs "same provenance from disk" (graph_key g_live)
        (graph_key g_loaded))

let test_repository_bad_ids () =
  with_temp_repo (fun repo ->
      let exec, _ = make_exec () in
      let expect id =
        match Repository.store repo ~id exec with
        | _ -> Alcotest.failf "expected Error for id %S" id
        | exception Repository.Error _ -> ()
      in
      expect "";
      expect "../evil";
      expect "a/b";
      expect "dotted.name")

let test_repository_missing () =
  with_temp_repo (fun repo ->
      match Repository.load repo ~id:"ghost" with
      | _ -> Alcotest.fail "expected Error"
      | exception Repository.Error _ -> ())

let () =
  Alcotest.run "extensions"
    [ ( "parallel",
        [ Alcotest.test_case "schedule" `Quick test_parallel_schedule;
          Alcotest.test_case "happened-before" `Quick test_happened_before_relation;
          Alcotest.test_case "channels" `Quick test_channels_recorded;
          Alcotest.test_case "no sibling links" `Quick test_parallel_provenance_excludes_siblings;
          Alcotest.test_case "sequential would cross" `Quick test_sequential_inference_would_cross_branches;
          Alcotest.test_case "strategies agree" `Quick test_parallel_strategies_agree;
          Alcotest.test_case "nested" `Quick test_nested_workflow_channels;
          Alcotest.test_case "deep nesting" `Quick test_deep_parallel_nesting ] );
      ( "workflow dsl",
        [ Alcotest.test_case "shapes" `Quick test_wf_parser_shapes;
          Alcotest.test_case "precedence" `Quick test_wf_parser_precedence;
          Alcotest.test_case "round-trip" `Quick test_wf_parser_roundtrip;
          Alcotest.test_case "comments and errors" `Quick test_wf_parser_comments_and_errors;
          Alcotest.test_case "executes" `Quick test_wf_parser_executes ] );
      ( "views",
        [ Alcotest.test_case "projection" `Quick test_view_projection;
          Alcotest.test_case "module graph" `Quick test_module_graph;
          Alcotest.test_case "identity view" `Quick test_view_identity ] );
      ( "reachability",
        [ Alcotest.test_case "chain" `Quick test_reachability_chain;
          Alcotest.test_case "matches BFS" `Quick test_reachability_matches_bfs;
          Alcotest.test_case "unknown uri" `Quick test_reachability_unknown_uri ] );
      ( "prov-store",
        [ Alcotest.test_case "rdf round-trip" `Quick test_graph_rdf_roundtrip ] );
      ( "prov-xml",
        [ Alcotest.test_case "well-formed" `Quick test_prov_xml_wellformed ] );
      ( "repository",
        [ Alcotest.test_case "round-trip" `Quick test_repository_roundtrip;
          Alcotest.test_case "bad ids" `Quick test_repository_bad_ids;
          Alcotest.test_case "missing" `Quick test_repository_missing ] );
      ( "trace-io",
        [ Alcotest.test_case "xml round-trip" `Quick test_trace_xml_roundtrip;
          Alcotest.test_case "reloaded inference" `Quick test_trace_loaded_inference;
          Alcotest.test_case "full reload" `Quick test_full_reload_inference;
          Alcotest.test_case "restore timestamps" `Quick test_restore_timestamps_values;
          Alcotest.test_case "rdf store" `Quick test_trace_rdf_store;
          Alcotest.test_case "malformed" `Quick test_trace_malformed ] ) ]
