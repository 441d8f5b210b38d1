(* Tests for the §5 extensions: Skolem-function aggregation rules and
   position-based mappings. *)

open Weblab_xml
open Weblab_prov

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let pairs = Alcotest.(list (pair string string))

(* Document with A sources (identified) and C outputs (unidentified,
   grouped by @val). *)
let doc () =
  Xml_parser.parse
    {|<R id="r1" s="Source" t="0">
        <A id="a1" val="g1" s="Source" t="0"/>
        <A id="a2" val="g1" s="Source" t="0"/>
        <A id="a3" val="g2" s="Source" t="0"/>
        <C val="g1"/>
        <C val="g1"/>
        <C val="g2"/>
      </R>|}

let state d = Doc_state.final d

let apply rule d = Mapping.apply_states rule (state d) (state d)

let test_one_to_one () =
  let rule =
    Skolem.rule ~kind:Skolem.One_to_one ~f:"f" ~src:"A" ~tgt:"C" ()
  in
  check_bool "skolem rule detected" true (Mapping.is_skolem_rule rule);
  let d = doc () in
  let app = apply rule d in
  (* Every A generates exactly one synthetic entity f(a_i). *)
  check pairs "links"
    [ ("f(a1)", "a1"); ("f(a2)", "a2"); ("f(a3)", "a3") ]
    (List.sort compare app.Mapping.links)

let test_many_to_one () =
  let rule =
    Skolem.rule ~kind:Skolem.Many_to_one ~f:"g" ~src:"A" ~tgt:"C" ()
  in
  let d = doc () in
  let app = apply rule d in
  (* One C gathers all the A sharing a @val: two synthetic entities. *)
  check pairs "links"
    [ ("g(g1)", "a1"); ("g(g1)", "a2"); ("g(g2)", "a3") ]
    (List.sort compare app.Mapping.links)

let test_one_to_many () =
  let rule =
    Skolem.rule ~kind:Skolem.One_to_many ~f:"h" ~src:"A" ~tgt:"C" ()
  in
  let d = doc () in
  let app = apply rule d in
  (* All C sharing a @val come from a single A — every A is a candidate
     generator of each group (the grouping is on the C side). *)
  check_bool "h(g1) present" true
    (List.exists (fun (o, _) -> o = "h(g1)") app.Mapping.links);
  check_bool "h(g2) present" true
    (List.exists (fun (o, _) -> o = "h(g2)") app.Mapping.links)

let test_many_to_many () =
  let rule =
    Skolem.rule ~kind:Skolem.Many_to_many ~f:"k" ~src:"A" ~tgt:"C" ()
  in
  let d = doc () in
  let app = apply rule d in
  (* All C with @val=g1 link to all A with @val=g1. *)
  check pairs "links"
    [ ("k(g1)", "a1"); ("k(g1)", "a2"); ("k(g2)", "a3") ]
    (List.sort compare app.Mapping.links)

let test_members_recorded () =
  (* One-to-many groups the C members by their own @val binding. *)
  let rule =
    Skolem.rule ~kind:Skolem.One_to_many ~f:"h" ~src:"A" ~tgt:"C" ()
  in
  let d = doc () in
  let app = apply rule d in
  check_int "three members" 3 (List.length app.Mapping.members);
  let groups = List.map fst app.Mapping.members |> List.sort_uniq compare in
  check (Alcotest.list Alcotest.string) "groups" [ "h(g1)"; "h(g2)" ] groups;
  check_int "members of h(g1)" 2
    (List.length (List.filter (fun (e, _) -> e = "h(g1)") app.Mapping.members))

let test_skolem_in_graph_and_export () =
  let rule =
    Skolem.rule ~kind:Skolem.One_to_many ~f:"g" ~src:"A" ~tgt:"C" ()
  in
  let d = doc () in
  let app = apply rule d in
  let g = Prov_graph.create () in
  List.iter
    (fun (o, i) ->
      Prov_graph.add_link g ~rule:"sk" ~step:0 ~from_uri:o ~to_uri:i)
    app.Mapping.links;
  List.iter
    (fun (entity, member) -> Prov_graph.add_member g ~step:0 ~entity ~member)
    app.Mapping.members;
  check_int "entities" 2 (List.length (Prov_graph.skolem_entities g));
  check_int "members of g(g1)" 2 (List.length (Prov_graph.members g "g(g1)"));
  ignore d;
  (* RDF export carries prov:hadMember triples. *)
  let store = Prov_export.to_store g in
  let open Weblab_rdf in
  check_int "hadMember triples" 3
    (Triple_store.count store (None, Some Prov_vocab.had_member, None))

let test_skolem_rule_text_roundtrip () =
  let rule =
    Skolem.rule ~kind:Skolem.One_to_one ~f:"f" ~src:"A" ~tgt:"C" ()
  in
  let r' = Rule_parser.parse (Rule.to_string rule) in
  check_bool "round-trip" true
    (Rule.source rule = Rule.source r' && Rule.target rule = Rule.target r')

(* --- §5 position-based rules --- *)

let position_doc () =
  Xml_parser.parse
    {|<R id="r1">
        <A id="a1"><B id="b11"/><B id="b12"/></A>
        <A id="a2"><B id="b21"/></A>
        <C id="c1"/><C id="c2"/><C id="c3"/>
      </R>|}

let test_position_mapping () =
  (* //A[B][$p := position()]/B ==> //C[$p = position()]:
     B children of the i-th A map to the i-th C. *)
  let rule =
    Rule_parser.parse "P: //A[B][$p := position()]/B ==> //C[$p = position()]"
  in
  let d = position_doc () in
  let app = Mapping.apply_states rule (Doc_state.final d) (Doc_state.final d) in
  check pairs "position links"
    [ ("c1", "b11"); ("c1", "b12"); ("c2", "b21") ]
    (List.sort compare app.Mapping.links)

let test_position_of_a_itself () =
  (* The §5 contrast: //A[$p := position()]/B takes A's position among all
     A, with or without B children — same here since both A have a B, but
     the semantics differ when binding before the [B] filter. *)
  let rule =
    Rule_parser.parse "P2: //A[$p := position()]/B ==> //C[$p = position()]"
  in
  let d = position_doc () in
  let app = Mapping.apply_states rule (Doc_state.final d) (Doc_state.final d) in
  check pairs "same on this doc"
    [ ("c1", "b11"); ("c1", "b12"); ("c2", "b21") ]
    (List.sort compare app.Mapping.links)

let test_position_semantics_differ () =
  (* A document where the two §5 rules genuinely differ: the first A has no
     B child. *)
  let d =
    Xml_parser.parse
      {|<R id="r1"><A id="a1"/><A id="a2"><B id="b2"/></A>
        <C id="c1"/><C id="c2"/></R>|}
  in
  let with_filter =
    Rule_parser.parse "F: //A[B][$p := position()]/B ==> //C[$p = position()]"
  in
  let without_filter =
    Rule_parser.parse "G: //A[$p := position()]/B ==> //C[$p = position()]"
  in
  let run rule =
    (Mapping.apply_states rule (Doc_state.final d) (Doc_state.final d)).Mapping.links
    |> List.sort compare
  in
  (* [B][position] : a2 is the 1st A with a B -> links to c1 *)
  check pairs "filtered" [ ("c1", "b2") ] (run with_filter);
  (* [position] only: a2 is the 2nd A -> links to c2 *)
  check pairs "unfiltered" [ ("c2", "b2") ] (run without_filter)

let () =
  Alcotest.run "skolem"
    [ ( "aggregation",
        [ Alcotest.test_case "one-to-one" `Quick test_one_to_one;
          Alcotest.test_case "many-to-one" `Quick test_many_to_one;
          Alcotest.test_case "one-to-many" `Quick test_one_to_many;
          Alcotest.test_case "many-to-many" `Quick test_many_to_many;
          Alcotest.test_case "members" `Quick test_members_recorded;
          Alcotest.test_case "graph + rdf" `Quick test_skolem_in_graph_and_export;
          Alcotest.test_case "text round-trip" `Quick test_skolem_rule_text_roundtrip ] );
      ( "position",
        [ Alcotest.test_case "mapping" `Quick test_position_mapping;
          Alcotest.test_case "position of A" `Quick test_position_of_a_itself;
          Alcotest.test_case "§5 contrast" `Quick test_position_semantics_differ ] ) ]
