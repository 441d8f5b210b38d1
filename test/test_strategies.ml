(* Tests for the evaluation strategies: every backend in the registry
   (Online, Replay, Rewrite, Fused) must produce identical
   provenance graphs; inherited closure; graph invariants (acyclicity,
   temporal soundness). *)

open Weblab_xml
open Weblab_workflow
open Weblab_services
open Weblab_prov

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let link_list g =
  Prov_graph.links g
  |> List.filter (fun l -> not l.Prov_graph.inherited)
  |> List.map (fun l -> (l.Prov_graph.from_uri, l.Prov_graph.to_uri, l.Prov_graph.rule))
  |> List.sort compare

let links_testable = Alcotest.(list (triple string string string))

let rulebook_of services =
  List.filter_map
    (fun svc ->
      let name = Service.name svc in
      Catalog.find name
      |> Option.map (fun e ->
             (name, List.map Rule_parser.parse e.Catalog.rules)))
    services

let pipeline ?(seed = 11) ?(units = 3) ?(extended = true) () =
  let doc = Workload.make_document ~units ~seed () in
  let services = Workload.standard_pipeline ~extended () in
  (doc, services, rulebook_of services)

let test_replay_equals_rewrite () =
  List.iter
    (fun seed ->
      let doc, services, rb = pipeline ~seed () in
      let exec = Engine.run doc services in
      let g1 = Engine.provenance ~strategy:`Replay exec rb in
      let g2 = Engine.provenance ~strategy:`Rewrite exec rb in
      check links_testable
        (Printf.sprintf "replay = rewrite (seed %d)" seed)
        (link_list g1) (link_list g2))
    [ 1; 7; 42; 99 ]

let test_online_equals_posthoc () =
  let doc, services, rb = pipeline ~seed:5 () in
  let exec, g_online = Engine.run_with_strategy `Online doc services rb in
  let g_replay = Engine.provenance ~strategy:`Replay exec rb in
  check links_testable "online = replay" (link_list g_replay) (link_list g_online)

(* Every inference builds the index it uses and caches nothing: once the
   caller drops an inferred document, nothing else keeps it alive. *)
let test_inferred_document_collectable () =
  let w = Weak.create 2 in
  let[@inline never] post_hoc () =
    let doc, services, rb = pipeline ~seed:3 () in
    let exec = Engine.run doc services in
    let g = Engine.provenance ~strategy:`Rewrite exec rb in
    check_bool "post-hoc links" true (Prov_graph.links g <> []);
    Weak.set w 0 (Some exec.Engine.doc)
  in
  let[@inline never] online () =
    let doc, services, rb = pipeline ~seed:3 () in
    let exec, g = Engine.run_with_strategy `Online doc services rb in
    check_bool "online links" true (Prov_graph.links g <> []);
    Weak.set w 1 (Some exec.Engine.doc)
  in
  post_hoc ();
  online ();
  Gc.full_major ();
  check_bool "document after post-hoc inference collected" false (Weak.check w 0);
  check_bool "document after online inference collected" false (Weak.check w 1)

(* --- backend agreement across the whole registry --- *)

(* The tested list IS the registry: a backend registered in
   {!Strategy.all} is automatically covered by every agreement test
   below, and [test_registry_pinned] fails when the registry and this
   suite's expectations drift apart. *)
let all_kinds : Strategy.kind list = Strategy.all

let test_registry_pinned () =
  check
    Alcotest.(list string)
    "registered backends = tested backends"
    [ "online"; "replay"; "rewrite"; "fused" ]
    Strategy.names;
  (* kind_of_string is the exact inverse over the registry *)
  List.iter
    (fun k ->
      match Strategy.kind_of_string (Strategy.kind_to_string k) with
      | Some k' ->
        check Alcotest.string "round-trip" (Strategy.kind_to_string k)
          (Strategy.kind_to_string k')
      | None -> Alcotest.fail "registered name not parsed")
    Strategy.all;
  check_bool "unknown name rejected" true
    (Strategy.kind_of_string "compiled" = None);
  check_bool "retired name rejected" true
    (Strategy.kind_of_string "incremental" = None)

let test_four_way_agreement () =
  (* Same deterministic workload re-run once per backend (execution
     mutates the document): every registered strategy, one link set. *)
  List.iter
    (fun seed ->
      let run kind =
        let doc, services, rb = pipeline ~seed () in
        let _, g = Engine.run_with_strategy kind doc services rb in
        link_list g
      in
      let reference = run `Online in
      List.iter
        (fun kind ->
          check links_testable
            (Printf.sprintf "online = %s (seed %d)"
               (Strategy.kind_to_string kind) seed)
            reference (run kind))
        all_kinds)
    [ 3; 11; 42 ]

let test_four_way_paper_scenario () =
  (* The paper's running example exercises URI promotion (the Normaliser
     promotes node 3 to r3), which forces the Fused backend to reset its
     source memo — every backend must still agree. *)
  let run kind =
    let doc = Weblab_scenario.Paper.initial_document () in
    let _, g =
      Engine.run_with_strategy kind doc Weblab_scenario.Paper.services
        (Weblab_scenario.Paper.rulebook ())
    in
    link_list g
  in
  let reference = run `Online in
  check_bool "paper scenario has links" true (reference <> []);
  List.iter
    (fun kind ->
      check links_testable
        ("paper: online = " ^ Strategy.kind_to_string kind)
        reference (run kind))
    all_kinds

let test_incremental_long_chain () =
  (* Repeated services over many calls: the memoized source tables must
     attribute each link to the right call. *)
  let run kind =
    let doc = Workload.make_document ~units:2 ~seed:21 () in
    let services = Workload.chain_pipeline 10 in
    let rb = rulebook_of services in
    let _, g = Engine.run_with_strategy kind doc services rb in
    link_list g
  in
  check links_testable "chain: fused = online" (run `Online) (run `Fused)

let test_nonempty () =
  let doc, services, rb = pipeline ~seed:3 () in
  let _, g = Engine.run_with_provenance doc services rb in
  check_bool "some links" true (Prov_graph.size g > 0);
  check_bool "some labels" true (Prov_graph.labeled_resources g <> [])

let test_graph_invariants () =
  List.iter
    (fun seed ->
      let doc, services, rb = pipeline ~seed () in
      let _, g = Engine.run_with_provenance ~inheritance:true doc services rb in
      check_bool "acyclic" true (Prov_graph.is_acyclic g);
      check_bool "temporally sound" true (Prov_graph.temporally_sound g))
    [ 2; 13; 77 ]

let test_chain_pipeline_strategies () =
  (* Longer chains with repeated services: services called several times
     must still attribute links to the right call. *)
  let doc = Workload.make_document ~units:2 ~seed:21 () in
  let services = Workload.chain_pipeline 10 in
  let rb = rulebook_of services in
  let exec = Engine.run doc services in
  let g1 = Engine.provenance ~strategy:`Replay exec rb in
  let g2 = Engine.provenance ~strategy:`Rewrite exec rb in
  check links_testable "long chain" (link_list g1) (link_list g2);
  check_bool "acyclic" true (Prov_graph.is_acyclic g2)

let test_empty_rulebook () =
  let doc, services, _ = pipeline ~seed:1 () in
  let _, g = Engine.run_with_provenance doc services [] in
  check_int "no links" 0 (Prov_graph.size g);
  check_bool "labels still there" true (Prov_graph.labeled_resources g <> [])

let test_unknown_service_in_rulebook () =
  (* Rules for services that never ran are simply unused. *)
  let doc, services, rb = pipeline ~seed:1 ~extended:false () in
  let rb = ("GhostService", [ Rule_parser.parse "//A ==> //B" ]) :: rb in
  let exec = Engine.run doc services in
  let g = Engine.provenance exec rb in
  check_bool "still fine" true (Prov_graph.is_acyclic g)

(* --- black-box services in the provenance path --- *)

let test_blackbox_provenance_equals_inproc () =
  (* The Normaliser as a true black box (serialized XML in/out, outputs
     identified by the Recorder's diff) yields the same provenance links
     as the in-process variant. *)
  let rules = List.map Rule_parser.parse Normaliser.rules in
  let run svc =
    let doc = Workload.make_document ~units:3 ~seed:23 () in
    let exec = Engine.run doc [ svc ] in
    let g = Engine.provenance exec [ ("Normaliser", rules) ] in
    (* compare by structure: (source unit kind, rule) pairs, since URIs can
       be allocated differently across integration modes *)
    Prov_graph.links g
    |> List.map (fun l ->
           let n = Option.get (Tree.find_resource doc l.Prov_graph.to_uri) in
           (Tree.name doc n, l.Prov_graph.rule))
    |> List.sort compare
  in
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "same link structure"
    (run Normaliser.service)
    (run Normaliser.blackbox_service)

let test_blackbox_in_longer_pipeline () =
  (* Mixed pipeline: black-box normaliser feeding in-process services. *)
  let doc = Workload.make_document ~units:2 ~seed:29 () in
  let services =
    [ Normaliser.blackbox_service; Language_extractor.service ]
  in
  let rb =
    [ ("Normaliser", List.map Rule_parser.parse Normaliser.rules);
      ("LanguageExtractor", List.map Rule_parser.parse Language_extractor.rules) ]
  in
  let exec, g = Engine.run_with_provenance doc services rb in
  check_bool "links exist" true (Prov_graph.size g > 0);
  check_bool "acyclic" true (Prov_graph.is_acyclic g);
  (* every language annotation is linked to a text content *)
  let l1_links =
    Prov_graph.links g |> List.filter (fun l -> l.Prov_graph.rule = "L1")
  in
  check_int "one L1 link per unit" 2 (List.length l1_links);
  ignore exec

(* --- inheritance --- *)

let inheritance_doc () =
  (* r1 ── rb (with child rbc) and ra (with child rac, grandchild) *)
  let doc = Xml_parser.parse
    {|<R id="r1"><A id="ra"><AC id="rac"/></A><B id="rb"><BC id="rbc"/></B></R>|}
  in
  doc

let test_inheritance_closure () =
  let doc = inheritance_doc () in
  let g = Prov_graph.create () in
  Prov_graph.add_link g ~rule:"m" ~from_uri:"rb" ~to_uri:"ra";
  let g = Inheritance.close doc g in
  let has a b = Prov_graph.has_link g ~from_uri:a ~to_uri:b in
  (* descendants of b inherit *)
  check_bool "rbc -> ra" true (has "rbc" "ra");
  (* descendants of a are inherited *)
  check_bool "rb -> rac" true (has "rb" "rac");
  (* ancestors of a are inherited *)
  check_bool "rb -> r1" true (has "rb" "r1");
  (* cross product *)
  check_bool "rbc -> rac" true (has "rbc" "rac");
  (* nothing flows the other way *)
  check_bool "no ra -> rb" false (has "ra" "rb");
  (* ancestors of b do NOT inherit b's dependencies *)
  check_bool "no r1 -> ra" false (has "r1" "ra")

let test_inheritance_marks () =
  let doc = inheritance_doc () in
  let g = Prov_graph.create () in
  Prov_graph.add_link g ~rule:"m" ~from_uri:"rb" ~to_uri:"ra";
  let g = Inheritance.close doc g in
  let inherited =
    List.filter (fun l -> l.Prov_graph.inherited) (Prov_graph.links g)
  in
  let explicit =
    List.filter (fun l -> not l.Prov_graph.inherited) (Prov_graph.links g)
  in
  check_int "one explicit" 1 (List.length explicit);
  check_bool "some inherited" true (inherited <> [])

let test_inheritance_all_nodes () =
  (* With resources_only:false, unlabeled nodes join the closure via
     pseudo-URIs (the 4 -> 2 link of the paper). *)
  let doc =
    Xml_parser.parse {|<R id="r1"><M><N id="rn"/></M><T id="rt"/></R>|}
  in
  let g = Prov_graph.create () in
  Prov_graph.add_link g ~rule:"m" ~from_uri:"rt" ~to_uri:"rn";
  let g = Inheritance.close ~resources_only:false doc g in
  (* the M node (unlabeled ancestor of rn) is now a target *)
  let m_pseudo =
    Prov_graph.links g
    |> List.exists (fun l ->
           l.Prov_graph.from_uri = "rt"
           && String.length l.Prov_graph.to_uri > 0
           && l.Prov_graph.to_uri.[0] = '#')
  in
  check_bool "pseudo-node link" true m_pseudo

let test_inheritance_idempotent () =
  let doc = inheritance_doc () in
  let g = Prov_graph.create () in
  Prov_graph.add_link g ~rule:"m" ~from_uri:"rb" ~to_uri:"ra";
  let g = Inheritance.close doc g in
  let n1 = Prov_graph.size g in
  let g = Inheritance.close doc g in
  check_int "idempotent" n1 (Prov_graph.size g)

(* --- graph primitives --- *)

let test_acyclicity_detection () =
  let g = Prov_graph.create () in
  Prov_graph.add_link g ~from_uri:"a" ~to_uri:"b";
  Prov_graph.add_link g ~from_uri:"b" ~to_uri:"c";
  check_bool "acyclic" true (Prov_graph.is_acyclic g);
  Prov_graph.add_link g ~from_uri:"c" ~to_uri:"a";
  check_bool "cycle" false (Prov_graph.is_acyclic g)

let test_temporal_soundness_detection () =
  let g = Prov_graph.create () in
  Prov_graph.set_label g "a" { Trace.service = "S"; time = 2 };
  Prov_graph.set_label g "b" { Trace.service = "T"; time = 1 };
  Prov_graph.add_link g ~from_uri:"a" ~to_uri:"b";
  check_bool "sound" true (Prov_graph.temporally_sound g);
  Prov_graph.add_link g ~from_uri:"b" ~to_uri:"a";
  check_bool "unsound" false (Prov_graph.temporally_sound g)

let test_dedup_links () =
  let g = Prov_graph.create () in
  Prov_graph.add_link g ~rule:"m" ~from_uri:"a" ~to_uri:"b";
  Prov_graph.add_link g ~rule:"m" ~from_uri:"a" ~to_uri:"b";
  check_int "dedup" 1 (Prov_graph.size g);
  Prov_graph.add_link g ~rule:"other" ~from_uri:"a" ~to_uri:"b";
  check_int "distinct rule kept" 2 (Prov_graph.size g);
  Prov_graph.add_link g ~from_uri:"a" ~to_uri:"a";
  check_int "self dropped" 2 (Prov_graph.size g)

(* λ has one home, the trace: the graph holds only E, and links are
   deduplicated through the successor adjacency.  On the 64-unit extended
   pipeline the trace and graph together reached 46,031 words when the
   graph kept its own label table and a string key per link; the bound
   sits 20% below that. *)
let test_trace_and_graph_words () =
  let doc, services, rb = pipeline ~seed:3 ~units:64 () in
  let exec, g = Engine.run_with_strategy ~jobs:1 `Fused doc services rb in
  let words = Obj.reachable_words (Obj.repr (exec.Engine.trace, g)) in
  check_bool
    (Printf.sprintf "trace + graph %d words, at most 36,800" words)
    true (words <= 36_800)

let () =
  Alcotest.run "strategies"
    [ ( "agreement",
        [ Alcotest.test_case "replay = rewrite" `Quick test_replay_equals_rewrite;
          Alcotest.test_case "online = post-hoc" `Quick test_online_equals_posthoc;
          Alcotest.test_case "inferred document is collectable" `Quick
            test_inferred_document_collectable;
          Alcotest.test_case "registry = tested list" `Quick test_registry_pinned;
          Alcotest.test_case "four-way agreement" `Quick test_four_way_agreement;
          Alcotest.test_case "four-way paper scenario" `Quick test_four_way_paper_scenario;
          Alcotest.test_case "incremental long chain" `Quick test_incremental_long_chain;
          Alcotest.test_case "non-empty" `Quick test_nonempty;
          Alcotest.test_case "invariants" `Quick test_graph_invariants;
          Alcotest.test_case "long chains" `Quick test_chain_pipeline_strategies;
          Alcotest.test_case "empty rulebook" `Quick test_empty_rulebook;
          Alcotest.test_case "unknown service" `Quick test_unknown_service_in_rulebook ] );
      ( "blackbox",
        [ Alcotest.test_case "≡ inproc provenance" `Quick test_blackbox_provenance_equals_inproc;
          Alcotest.test_case "mixed pipeline" `Quick test_blackbox_in_longer_pipeline ] );
      ( "inheritance",
        [ Alcotest.test_case "closure" `Quick test_inheritance_closure;
          Alcotest.test_case "marking" `Quick test_inheritance_marks;
          Alcotest.test_case "all nodes" `Quick test_inheritance_all_nodes;
          Alcotest.test_case "idempotent" `Quick test_inheritance_idempotent ] );
      ( "graph",
        [ Alcotest.test_case "acyclicity" `Quick test_acyclicity_detection;
          Alcotest.test_case "temporal soundness" `Quick test_temporal_soundness_detection;
          Alcotest.test_case "dedup" `Quick test_dedup_links;
          Alcotest.test_case "trace and graph words" `Quick
            test_trace_and_graph_words ] ) ]
