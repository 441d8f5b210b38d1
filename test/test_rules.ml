(* Tests for mapping rules: parser, validation, Definition 8/9 application
   and the §4 temporal rewriting. *)

open Weblab_xml
open Weblab_workflow
open Weblab_prov

let check = Alcotest.check
let check_int = check Alcotest.int
let check_str = check Alcotest.string
let check_bool = check Alcotest.bool

let links_testable = Alcotest.(list (pair string string))

(* --- rule parser --- *)

let test_parse_named () =
  let r = Rule_parser.parse "M2: //T[$x := @id]/C ==> //T[$x := @id]/A[L]" in
  check_str "name" "M2" (Rule.name r);
  check_int "src steps" 2 (List.length (Rule.source r));
  check_int "tgt steps" 2 (List.length (Rule.target r));
  check (Alcotest.list Alcotest.string) "join vars" [ "x" ] (Rule.join_variables r)

let test_parse_unnamed_and_arrows () =
  let r1 = Rule_parser.parse "//A ==> //B" in
  check_str "no name" "" (Rule.name r1);
  let r2 = Rule_parser.parse "//A --> //B" in
  check_bool "same patterns" true
    (Rule.source r1 = Rule.source r2 && Rule.target r1 = Rule.target r2)

let test_parse_roundtrip () =
  let inputs =
    [ "M1: /Resource//NativeContent ==> //TextMediaUnit[1]";
      "M3: //T[A/L = 'fr'] ==> //T[A/L = 'en']";
      "//A[$x := @id] ==> //C[f($x) = @id]" ]
  in
  List.iter
    (fun input ->
      let r = Rule_parser.parse input in
      let r' = Rule_parser.parse (Rule.to_string r) in
      check_bool input true
        (Rule.source r = Rule.source r' && Rule.target r = Rule.target r'
         && Rule.name r = Rule.name r'))
    inputs

let expect_error input =
  match Rule_parser.parse input with
  | _ -> Alcotest.failf "expected rule error for %S" input
  | exception Rule_parser.Error _ -> ()

let test_implicit_binding_equality () =
  (* [@id = $x] is the implicit-binding spelling of [$x := @id]
     (Example 9 writes rules this way). *)
  let r1 = Rule_parser.parse "//T[@id = $x]/C ==> //T[@id = $x]/A" in
  let r2 = Rule_parser.parse "//T[$x := @id]/C ==> //T[$x := @id]/A" in
  check_bool "normalized to the same rule" true
    (Rule.source r1 = Rule.source r2 && Rule.target r1 = Rule.target r2)

let test_parse_errors () =
  expect_error "";
  expect_error "//A";
  expect_error "//A ==>";
  expect_error "==> //B";
  expect_error "//A ==> //B ==> //C";
  (* Definition 5: the target may not introduce variables in comparisons
     other than the implicit-binding equality. *)
  expect_error "//A ==> //B[@id < $y]"

let test_parse_many () =
  let rules =
    Rule_parser.parse_many
      "# comment\nM1: //A ==> //B\n\n   \nM2: //C ==> //D\n"
  in
  check (Alcotest.list Alcotest.string) "names" [ "M1"; "M2" ]
    (List.map Rule.name rules)

let test_validation () =
  (match Rule.make ~source:[] ~target:(Weblab_xpath.Parser.pattern "//B") () with
   | _ -> Alcotest.fail "empty source accepted"
   | exception Rule.Ill_formed _ -> ());
  (* Skolem arguments must also come from the source. *)
  expect_error "//A ==> //C[f($z) = @id]"

(* --- Definition 8/9 on a hand-built execution --- *)

(* Workflow: initial document with two <N> sources; service S wraps each
   N's text into a <T> with @src back-pointer. *)
let execution () =
  let doc = Orchestrator.initial_document () in
  let root = Tree.root doc in
  let n1 = Tree.new_element doc ~parent:root "N" in
  Tree.set_uri doc n1 "n1";
  ignore (Tree.new_text doc ~parent:n1 "alpha");
  let n2 = Tree.new_element doc ~parent:root "N" in
  Tree.set_uri doc n2 "n2";
  ignore (Tree.new_text doc ~parent:n2 "beta");
  let wrap =
    Service.inproc ~name:"Wrap" ~description:"" (fun doc ->
        List.iter
          (fun n ->
            if Tree.name doc n = "N" && Tree.created doc n = 0 then begin
              let t =
                Tree.new_element doc ~parent:(Tree.root doc) "T"
                  ~attrs:[ ("src", Option.get (Tree.uri doc n)) ]
              in
              Tree.set_uri doc t ("t-" ^ Option.get (Tree.uri doc n))
            end)
          (Tree.descendant_or_self doc (Tree.root doc)))
  in
  let annotate =
    Service.inproc ~name:"Annotate" ~description:"" (fun doc ->
        List.iter
          (fun n ->
            if Tree.name doc n = "T" && Tree.created doc n = 1 then begin
              let a = Tree.new_element doc ~parent:n "A" in
              Tree.set_uri doc a ("a-" ^ Option.get (Tree.uri doc n))
            end)
          (Tree.descendant_or_self doc (Tree.root doc)))
  in
  let trace = Orchestrator.execute doc [ wrap; annotate ] in
  (doc, trace)

let wrap_rule = "W: //N[$x := @id] ==> //T[$x := @src]"
let ann_rule = "A: //T[$x := @id] ==> //T[$x := @id]/A"

let test_apply_states () =
  let doc, _ = execution () in
  let rule = Rule_parser.parse wrap_rule in
  let app =
    Mapping.apply_states rule (Doc_state.at doc 0) (Doc_state.at doc 1)
  in
  check links_testable "links"
    [ ("t-n1", "n1"); ("t-n2", "n2") ]
    (List.sort compare app.Mapping.links)

let test_apply_states_empty_when_early () =
  let doc, _ = execution () in
  let rule = Rule_parser.parse wrap_rule in
  (* Both sides evaluated on d0: no T exists yet. *)
  let app =
    Mapping.apply_states rule (Doc_state.at doc 0) (Doc_state.at doc 0)
  in
  check_int "no links" 0 (List.length app.Mapping.links)

let test_apply_call_filters () =
  let doc, _ = execution () in
  let rule = Rule_parser.parse ann_rule in
  let call = { Trace.service = "Annotate"; time = 2 } in
  let app = Mapping.apply_call rule ~doc ~call in
  check links_testable "links"
    [ ("a-t-n1", "t-n1"); ("a-t-n2", "t-n2") ]
    (List.sort compare app.Mapping.links)

let test_self_links_dropped () =
  let doc, _ = execution () in
  (* //T ==> //T maps each T to itself (same variable @id): self links must
     be dropped. *)
  let rule = Rule_parser.parse "S: //T[$x := @id] ==> //T[$x := @id]" in
  let app =
    Mapping.apply_states rule (Doc_state.at doc 1) (Doc_state.at doc 1)
  in
  check_int "no self links" 0 (List.length app.Mapping.links)

(* --- §4 rewriting --- *)

let test_rewrite_adds_constraints () =
  let rule = Rule_parser.parse wrap_rule in
  let call = { Trace.service = "Wrap"; time = 1 } in
  let r' = Pattern_rewrite.rewrite_rule rule call in
  let src = Weblab_xpath.Print.pattern_to_string (Rule.source r') in
  let tgt = Weblab_xpath.Print.pattern_to_string (Rule.target r') in
  check_str "source" "//N[$x := @id][@t < 1]" src;
  check_str "target" "//T[$x := @src][@s = 'Wrap' and @t = 1]" tgt

let test_rewrite_literal_evaluation () =
  (* The literally rewritten rule, evaluated on the *final* document with
     no visibility guard, produces exactly the per-state links — thanks to
     the @s/@t labels the Recorder wrote. *)
  let doc, _ = execution () in
  let rule = Rule_parser.parse ann_rule in
  let call = { Trace.service = "Annotate"; time = 2 } in
  let rewritten = Pattern_rewrite.rewrite_rule rule call in
  let final = Doc_state.final doc in
  let app = Mapping.apply_states rewritten final final in
  let reference = Mapping.apply_call rule ~doc ~call in
  check links_testable "literal rewrite ≡ replay"
    (List.sort compare reference.Mapping.links)
    (List.sort compare app.Mapping.links)

let test_rewrite_source_excludes_same_call () =
  (* Resources produced by the call itself must not appear as sources. *)
  let doc, trace = execution () in
  let rule = Rule_parser.parse "X: //T[$x := @id] ==> //T[$x := @id]/A" in
  let call = { Trace.service = "Annotate"; time = 2 } in
  let app = Mapping.apply_call rule ~doc ~call in
  List.iter
    (fun (_, src) ->
      let n = Option.get (Tree.find_resource doc src) in
      check_bool "source older than call" true (Tree.created doc n < 2))
    app.Mapping.links;
  ignore trace

let () =
  Alcotest.run "rules"
    [ ( "parser",
        [ Alcotest.test_case "named rule" `Quick test_parse_named;
          Alcotest.test_case "arrows" `Quick test_parse_unnamed_and_arrows;
          Alcotest.test_case "round-trip" `Quick test_parse_roundtrip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "implicit binding" `Quick test_implicit_binding_equality;
          Alcotest.test_case "parse_many" `Quick test_parse_many;
          Alcotest.test_case "validation" `Quick test_validation ] );
      ( "application",
        [ Alcotest.test_case "apply_states" `Quick test_apply_states;
          Alcotest.test_case "early states empty" `Quick test_apply_states_empty_when_early;
          Alcotest.test_case "apply_call filters" `Quick test_apply_call_filters;
          Alcotest.test_case "self links dropped" `Quick test_self_links_dropped ] );
      ( "rewriting",
        [ Alcotest.test_case "constraints added" `Quick test_rewrite_adds_constraints;
          Alcotest.test_case "literal ≡ replay" `Quick test_rewrite_literal_evaluation;
          Alcotest.test_case "no same-call sources" `Quick test_rewrite_source_excludes_same_call ] ) ]
