(* Tests for the XML substrate: arena trees, parser, printer, document
   states and the XML diff. *)

open Weblab_xml

let check = Alcotest.check
let check_str = check Alcotest.string
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* --- Tree construction and navigation --- *)

let sample () =
  let doc = Tree.create () in
  let root = Tree.new_element doc ~parent:Tree.no_node "Resource" in
  Tree.set_uri doc root "r1";
  let a = Tree.new_element doc ~parent:root "A" ~attrs:[ ("k", "v") ] in
  let b = Tree.new_element doc ~parent:root "B" in
  let t = Tree.new_text doc ~parent:a "hello" in
  (doc, root, a, b, t)

let test_build () =
  let doc, root, a, b, t = sample () in
  check_int "size" 4 (Tree.size doc);
  check_int "root" root (Tree.root doc);
  check_str "root name" "Resource" (Tree.name doc root);
  check (Alcotest.list Alcotest.int) "children" [ a; b ] (Tree.children doc root);
  check_int "parent of a" root (Tree.parent doc a);
  check_int "parent of root" Tree.no_node (Tree.parent doc root);
  check_str "attr" "v" (Option.get (Tree.attr doc a "k"));
  check_bool "missing attr" true (Tree.attr doc a "zz" = None);
  check_str "text" "hello" (Tree.text doc t);
  check_bool "a is element" true (Tree.is_element doc a);
  check_bool "t is text" true (Tree.is_text doc t)

let test_single_root () =
  let doc = Tree.create () in
  ignore (Tree.new_element doc ~parent:Tree.no_node "R");
  Alcotest.check_raises "second root" (Invalid_argument
    "Tree.new_element: document already has a root")
    (fun () -> ignore (Tree.new_element doc ~parent:Tree.no_node "R2"))

let test_string_value () =
  let doc = Tree.create () in
  let root = Tree.new_element doc ~parent:Tree.no_node "R" in
  let a = Tree.new_element doc ~parent:root "A" in
  ignore (Tree.new_text doc ~parent:a "foo ");
  let b = Tree.new_element doc ~parent:a "B" in
  ignore (Tree.new_text doc ~parent:b "bar");
  ignore (Tree.new_text doc ~parent:root " baz");
  check_str "string-value" "foo bar baz" (Tree.string_value doc root)

let test_descendants_order () =
  let doc, root, a, b, t = sample () in
  check (Alcotest.list Alcotest.int) "descendant_or_self"
    [ root; a; t; b ]
    (Tree.descendant_or_self doc root);
  check (Alcotest.list Alcotest.int) "descendants" [ a; t; b ]
    (Tree.descendants doc root);
  check (Alcotest.list Alcotest.int) "ancestors of t" [ a; root ]
    (Tree.ancestors doc t);
  check_bool "root ancestor of t" true (Tree.is_ancestor doc ~ancestor:root t);
  check_bool "b not ancestor of t" false (Tree.is_ancestor doc ~ancestor:b t);
  check_bool "t not its own ancestor" false (Tree.is_ancestor doc ~ancestor:t t)

let test_resources () =
  let doc, root, a, _, _ = sample () in
  check (Alcotest.list Alcotest.int) "resources" [ root ] (Tree.resources doc);
  Tree.set_uri doc a "r2";
  check (Alcotest.list Alcotest.int) "resources2" [ root; a ] (Tree.resources doc);
  check_int "find r2" a (Option.get (Tree.find_resource doc "r2"));
  check_bool "find missing" true (Tree.find_resource doc "nope" = None)

(* The URI table follows every id write: the first carrier holds a URI,
   a carrier that drops it hands it to the next one in arena order, and
   a restore puts the table back. *)
let test_find_resource_follows_writes () =
  let doc = Tree.create () in
  let root = Tree.new_element doc ~parent:Tree.no_node "R" in
  let a = Tree.new_element doc ~parent:root "A" ~attrs:[ ("id", "x") ] in
  let b = Tree.new_element doc ~parent:root "B" in
  Tree.set_uri doc b "x";
  let find = Tree.find_resource doc in
  check_bool "first carrier wins" true (find "x" = Some a);
  Tree.set_uri doc a "y";
  check_bool "next carrier takes over" true (find "x" = Some b && find "y" = Some a);
  Tree.set_uri doc b "z";
  check_bool "dropped URI resolves to nothing" true (find "x" = None);
  let claim = Tree.fresh_uri doc in
  check_bool "a claim resolves to nothing" true (find claim = None);
  let ck = Tree.checkpoint doc in
  Tree.set_uri doc a "x";
  Tree.set_uri doc root claim;
  ignore (Tree.new_element doc ~parent:root "C" ~attrs:[ ("id", "w") ]);
  check_bool "writes under a checkpoint" true
    (find "x" = Some a && find claim = Some root && find "w" <> None);
  Tree.restore doc ck;
  check_bool "restore puts the table back" true
    (find "x" = None && find "y" = Some a && find "z" = Some b
    && find "w" = None && find claim = None);
  check_bool "the claim survives a restore past it" true
    (Tree.fresh_uri doc <> claim)

let test_copy_subtree () =
  let doc, _, a, _, _ = sample () in
  let dst = Tree.create () in
  let r = Tree.new_element dst ~parent:Tree.no_node "R" in
  let a' = Weblab_test_support.Oracle_graft.copy_subtree dst ~src:doc a ~parent:r in
  check_bool "equal subtree" true (Tree.equal_subtree doc a dst a');
  check_str "copied attr" "v" (Option.get (Tree.attr dst a' "k"));
  check_str "copied text" "hello" (Tree.string_value dst a')

let test_equal_subtree_negative () =
  let doc1 = Xml_parser.parse "<A k='v'><B>x</B></A>" in
  let doc2 = Xml_parser.parse "<A k='w'><B>x</B></A>" in
  let doc3 = Xml_parser.parse "<A k='v'><B>y</B></A>" in
  let doc4 = Xml_parser.parse "<A k='v'><B>x</B><C/></A>" in
  let r1 = Tree.root doc1 in
  check_bool "attr differs" false (Tree.equal_subtree doc1 r1 doc2 (Tree.root doc2));
  check_bool "text differs" false (Tree.equal_subtree doc1 r1 doc3 (Tree.root doc3));
  check_bool "extra child" false (Tree.equal_subtree doc1 r1 doc4 (Tree.root doc4));
  check_bool "self equal" true (Tree.equal_subtree doc1 r1 doc1 r1)

(* --- Parser --- *)

let parse = Xml_parser.parse

let test_parse_simple () =
  let doc = parse "<a><b x=\"1\">hi</b><c/></a>" in
  let root = Tree.root doc in
  check_str "root" "a" (Tree.name doc root);
  match Tree.children doc root with
  | [ b; c ] ->
    check_str "b" "b" (Tree.name doc b);
    check_str "b@x" "1" (Option.get (Tree.attr doc b "x"));
    check_str "b text" "hi" (Tree.string_value doc b);
    check_str "c" "c" (Tree.name doc c)
  | _ -> Alcotest.fail "expected two children"

let test_parse_entities () =
  let doc = parse "<a>x &amp; y &lt;z&gt; &quot;q&quot; &#65;&#x42;</a>" in
  check_str "entities" "x & y <z> \"q\" AB" (Tree.string_value doc (Tree.root doc))

let test_parse_attr_quotes () =
  let doc = parse "<a x='single' y=\"double\" z='a&amp;b'/>" in
  let r = Tree.root doc in
  check_str "single" "single" (Option.get (Tree.attr doc r "x"));
  check_str "double" "double" (Option.get (Tree.attr doc r "y"));
  check_str "entity in attr" "a&b" (Option.get (Tree.attr doc r "z"))

let test_parse_comments_cdata () =
  let doc = parse "<a><!-- a comment -->text<![CDATA[<raw> & stuff]]></a>" in
  check_str "cdata" "text<raw> & stuff" (Tree.string_value doc (Tree.root doc))

let test_parse_declaration_doctype () =
  let doc =
    parse "<?xml version=\"1.0\" encoding=\"UTF-8\"?><!DOCTYPE a><a>ok</a>"
  in
  check_str "after prolog" "ok" (Tree.string_value doc (Tree.root doc))

let test_parse_whitespace () =
  let doc = parse "<a>\n  <b/>\n</a>" in
  check_int "ws dropped" 1 (List.length (Tree.children doc (Tree.root doc)));
  let doc = Xml_parser.parse ~preserve_whitespace:true "<a>\n  <b/>\n</a>" in
  check_int "ws preserved" 3 (List.length (Tree.children doc (Tree.root doc)))

let test_parse_nested_deep () =
  let deep = String.concat "" (List.init 200 (fun _ -> "<x>"))
             ^ "leaf"
             ^ String.concat "" (List.init 200 (fun _ -> "</x>")) in
  let doc = parse deep in
  check_str "deep leaf" "leaf" (Tree.string_value doc (Tree.root doc))

let expect_parse_error input =
  match parse input with
  | _ -> Alcotest.failf "expected a parse error for %S" input
  | exception Xml_parser.Error _ -> ()

let test_parse_errors () =
  expect_parse_error "";
  expect_parse_error "no markup";
  expect_parse_error "<a>";
  expect_parse_error "<a></b>";
  expect_parse_error "<a><b></a></b>";
  expect_parse_error "<a x=1/>";
  expect_parse_error "<a x='unterminated/>";
  expect_parse_error "<a/><b/>";
  expect_parse_error "<a>&unknown;</a>";
  expect_parse_error "<a><!-- unterminated </a>"

let test_parse_error_position () =
  match parse "<a>\n<b>\n</c>\n</a>" with
  | _ -> Alcotest.fail "expected error"
  | exception Xml_parser.Error { line; _ } -> check_int "error line" 3 line

(* --- Printer round-trips --- *)

let test_print_roundtrip () =
  let inputs =
    [ "<a/>";
      "<a x=\"1\" y=\"2\"/>";
      "<a><b>text</b><c><d/></c></a>";
      "<a>one<b/>two</a>";
      "<a>&amp;&lt;&gt;</a>" ]
  in
  List.iter
    (fun input ->
      let doc = parse input in
      let printed = Printer.to_string doc in
      let doc' = parse printed in
      check_bool
        (Printf.sprintf "round-trip %s" input)
        true
        (Tree.equal_subtree doc (Tree.root doc) doc' (Tree.root doc')))
    inputs

let test_print_escaping () =
  let doc = Tree.create () in
  let r = Tree.new_element doc ~parent:Tree.no_node "a" ~attrs:[ ("x", "a\"b<c&d") ] in
  ignore (Tree.new_text doc ~parent:r "1 < 2 & 3 > 2");
  let s = Printer.to_string doc in
  let doc' = parse s in
  check_str "attr survived" "a\"b<c&d" (Option.get (Tree.attr doc' (Tree.root doc') "x"));
  check_str "text survived" "1 < 2 & 3 > 2" (Tree.string_value doc' (Tree.root doc'))

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub hay i nn = needle || loop (i + 1)) in
  nn = 0 || loop 0

let test_print_visible_filter () =
  let doc, _, a, _, _ = sample () in
  let s = Printer.to_string ~visible:(fun n -> n <> a) doc in
  check_bool "a hidden" false (contains_substring s "<A");
  check_bool "b kept" true (contains_substring s "<B")

(* --- Document states --- *)

let staged () =
  let doc, root, a, b, _ = sample () in
  (* b was added at time 2, a child of a at time 1 *)
  let c = Tree.new_element doc ~parent:a "C" in
  Tree.set_created doc c 1;
  Tree.set_created doc b 2;
  (doc, root, a, b, c)

let test_states () =
  let doc, root, a, b, c = staged () in
  let d0 = Doc_state.at doc 0 in
  let d1 = Doc_state.at doc 1 in
  let d2 = Doc_state.at doc 2 in
  check_bool "b invisible at 0" false (Doc_state.visible d0 b);
  check_bool "c invisible at 0" false (Doc_state.visible d0 c);
  check_bool "c visible at 1" true (Doc_state.visible d1 c);
  check_bool "b invisible at 1" false (Doc_state.visible d1 b);
  check_bool "b visible at 2" true (Doc_state.visible d2 b);
  check_bool "d0 in d1" true (Doc_state.contains ~smaller:d0 ~larger:d1);
  check_bool "d2 not in d1" false (Doc_state.contains ~smaller:d2 ~larger:d1);
  check_bool "root always" true (Doc_state.visible d0 root);
  ignore a

let test_added_fragment_roots () =
  let doc, _, _, b, c = staged () in
  let d0 = Doc_state.at doc 0 in
  let d1 = Doc_state.at doc 1 in
  let d2 = Doc_state.at doc 2 in
  check (Alcotest.list Alcotest.int) "d1 \\ d0" [ c ]
    (Doc_state.added_fragment_roots ~smaller:d0 ~larger:d1);
  check (Alcotest.list Alcotest.int) "d2 \\ d1" [ b ]
    (Doc_state.added_fragment_roots ~smaller:d1 ~larger:d2);
  check (Alcotest.list Alcotest.int) "d2 \\ d0" [ c; b ]
    (Doc_state.added_fragment_roots ~smaller:d0 ~larger:d2)

let test_monotonic () =
  let doc, _, _, _, c = staged () in
  check_bool "monotone" true (Doc_state.timestamps_monotonic doc);
  (* Violate: parent newer than child. *)
  let d = Tree.new_element doc ~parent:c "D" in
  Tree.set_created doc d 0;
  Tree.set_created doc c 3;
  check_bool "broken" false (Doc_state.timestamps_monotonic doc)

let test_restore_timestamps_robust () =
  (* Non-numeric @t falls back to the inherited value. *)
  let doc = parse "<R id='r1' t='0'><A id='a' t='weird'><B id='b' t='2'/></A></R>" in
  Doc_state.restore_timestamps doc;
  let created u = Tree.created doc (Option.get (Tree.find_resource doc u)) in
  check_int "root" 0 (created "r1");
  check_int "bad t inherits" 0 (created "a");
  check_int "good t kept" 2 (created "b")

let test_indent_roundtrip () =
  (* Indented output re-parses to the same tree (whitespace-only text is
     dropped on parse). *)
  let doc = parse "<R><A x=\"1\"><B>hi</B></A><C/></R>" in
  let doc2 = parse (Printer.to_string ~indent:true doc) in
  check_bool "equal" true
    (Tree.equal_subtree doc (Tree.root doc) doc2 (Tree.root doc2))

(* --- Diff --- *)

let test_diff_appends () =
  let old_doc = parse "<R id=\"r1\"><A>x</A></R>" in
  let new_doc = parse "<R id=\"r1\"><A>x</A><B id=\"r2\">y</B></R>" in
  let result = Diff.diff ~old_doc ~new_doc in
  (match result.Diff.added with
   | [ { Diff.new_node; _ } ] ->
     check_str "added B" "B" (Tree.name new_doc new_node)
   | l -> Alcotest.failf "expected 1 added fragment, got %d" (List.length l));
  check_bool "contains" true (Diff.contains ~old_doc ~new_doc)

let test_diff_insert_middle () =
  let old_doc = parse "<R><A/><C/></R>" in
  let new_doc = parse "<R><A/><B/><C/></R>" in
  let result = Diff.diff ~old_doc ~new_doc in
  match result.Diff.added with
  | [ { Diff.new_node; _ } ] -> check_str "added B" "B" (Tree.name new_doc new_node)
  | l -> Alcotest.failf "expected 1 added, got %d" (List.length l)

let test_diff_nested_add () =
  let old_doc = parse "<R><A><X/></A></R>" in
  let new_doc = parse "<R><A><X/><Y/></A><B/></R>" in
  let result = Diff.diff ~old_doc ~new_doc in
  let names =
    List.map (fun e -> Tree.name new_doc e.Diff.new_node) result.Diff.added
    |> List.sort compare
  in
  check (Alcotest.list Alcotest.string) "added" [ "B"; "Y" ] names

let test_diff_id_promotion () =
  let old_doc = parse "<R id=\"r1\"><A/></R>" in
  let new_doc = parse "<R id=\"r1\"><A id=\"r2\"/></R>" in
  let result = Diff.diff ~old_doc ~new_doc in
  check_int "no additions" 0 (List.length result.Diff.added)

let test_diff_violations () =
  let old_doc = parse "<R><A>x</A><B/></R>" in
  let removed = parse "<R><B/></R>" in
  let changed = parse "<R><A>y</A><B/></R>" in
  let renamed = parse "<R><A2>x</A2><B/></R>" in
  let attr_changed = parse "<R x=\"1\"><A>x</A><B/></R>" in
  check_bool "removal" false (Diff.contains ~old_doc ~new_doc:removed);
  check_bool "text change" false (Diff.contains ~old_doc ~new_doc:changed);
  check_bool "rename" false (Diff.contains ~old_doc ~new_doc:renamed);
  (* pure attribute addition is tolerated (recorder labels) *)
  check_bool "attr add ok" true (Diff.contains ~old_doc ~new_doc:attr_changed)

let test_diff_reorder_rejected () =
  let old_doc = parse "<R><A>1</A><B>2</B></R>" in
  let new_doc = parse "<R><B>2</B><A>1</A></R>" in
  (* Reordering is not an append: A must embed before B. *)
  check_bool "reorder" false (Diff.contains ~old_doc ~new_doc)

let test_diff_not_contained_reasons () =
  (* Every append-semantics violation class must surface as Not_contained
     (the boolean [contains] is just its non-raising wrapper), with a
     human-readable reason. *)
  let old_doc = parse "<R a=\"1\"><A>x</A><B k=\"v\"/></R>" in
  let expect_violation name new_doc =
    match Diff.diff ~old_doc ~new_doc with
    | _ -> Alcotest.failf "%s: expected Not_contained" name
    | exception Diff.Not_contained msg ->
      check_bool (name ^ ": reason attached") true (String.length msg > 0)
  in
  (* modification *)
  expect_violation "text modified" (parse "<R a=\"1\"><A>z</A><B k=\"v\"/></R>");
  expect_violation "element renamed" (parse "<R a=\"1\"><A2>x</A2><B k=\"v\"/></R>");
  expect_violation "attribute value changed"
    (parse "<R a=\"2\"><A>x</A><B k=\"v\"/></R>");
  (* removal *)
  expect_violation "child removed" (parse "<R a=\"1\"><B k=\"v\"/></R>");
  expect_violation "text removed" (parse "<R a=\"1\"><A/><B k=\"v\"/></R>");
  expect_violation "attribute removed" (parse "<R a=\"1\"><A>x</A><B/></R>");
  (* reorder *)
  expect_violation "children reordered"
    (parse "<R a=\"1\"><B k=\"v\"/><A>x</A></R>")

let test_diff_attr_addition_tolerated () =
  (* The tolerance path: attribute additions on matched nodes at any
     depth (URI promotion, the Recorder's @s/@t labels) are not edits —
     diff reports no additions and matches every old node. *)
  let old_doc = parse "<R id=\"r1\"><A><X>x</X></A></R>" in
  let new_doc =
    parse
      "<R id=\"r1\" s=\"Svc\" t=\"3\"><A id=\"r2\"><X id=\"r3\" k=\"w\">x</X></A></R>"
  in
  let result = Diff.diff ~old_doc ~new_doc in
  check_int "no additions" 0 (List.length result.Diff.added);
  check_int "every old node matched" 4 (List.length result.Diff.matched);
  check_bool "contains" true (Diff.contains ~old_doc ~new_doc)

let test_diff_matched_pairs () =
  let old_doc = parse "<R><A/><B/></R>" in
  let new_doc = parse "<R><A/><N/><B/></R>" in
  let result = Diff.diff ~old_doc ~new_doc in
  check_int "three matches" 3 (List.length result.Diff.matched)

let test_diff_empty_old () =
  let old_doc = Tree.create () in
  let new_doc = parse "<R/>" in
  let result = Diff.diff ~old_doc ~new_doc in
  check_int "whole doc added" 1 (List.length result.Diff.added)

let () =
  Alcotest.run "xml"
    [ ( "tree",
        [ Alcotest.test_case "build" `Quick test_build;
          Alcotest.test_case "single root" `Quick test_single_root;
          Alcotest.test_case "string value" `Quick test_string_value;
          Alcotest.test_case "descendants order" `Quick test_descendants_order;
          Alcotest.test_case "resources" `Quick test_resources;
          Alcotest.test_case "find_resource follows id writes" `Quick
            test_find_resource_follows_writes;
          Alcotest.test_case "copy subtree" `Quick test_copy_subtree;
          Alcotest.test_case "equal subtree" `Quick test_equal_subtree_negative ] );
      ( "parser",
        [ Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "attribute quotes" `Quick test_parse_attr_quotes;
          Alcotest.test_case "comments and cdata" `Quick test_parse_comments_cdata;
          Alcotest.test_case "prolog" `Quick test_parse_declaration_doctype;
          Alcotest.test_case "whitespace" `Quick test_parse_whitespace;
          Alcotest.test_case "deep nesting" `Quick test_parse_nested_deep;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error position" `Quick test_parse_error_position ] );
      ( "printer",
        [ Alcotest.test_case "round-trip" `Quick test_print_roundtrip;
          Alcotest.test_case "escaping" `Quick test_print_escaping;
          Alcotest.test_case "visibility filter" `Quick test_print_visible_filter ] );
      ( "states",
        [ Alcotest.test_case "visibility" `Quick test_states;
          Alcotest.test_case "added fragments" `Quick test_added_fragment_roots;
          Alcotest.test_case "monotonicity" `Quick test_monotonic ] );
      ( "restore",
        [ Alcotest.test_case "robust timestamps" `Quick test_restore_timestamps_robust;
          Alcotest.test_case "indent round-trip" `Quick test_indent_roundtrip ] );
      ( "diff",
        [ Alcotest.test_case "appends" `Quick test_diff_appends;
          Alcotest.test_case "insert in middle" `Quick test_diff_insert_middle;
          Alcotest.test_case "nested additions" `Quick test_diff_nested_add;
          Alcotest.test_case "id promotion" `Quick test_diff_id_promotion;
          Alcotest.test_case "violations" `Quick test_diff_violations;
          Alcotest.test_case "reorder rejected" `Quick test_diff_reorder_rejected;
          Alcotest.test_case "Not_contained per violation class" `Quick
            test_diff_not_contained_reasons;
          Alcotest.test_case "attribute addition tolerated" `Quick
            test_diff_attr_addition_tolerated;
          Alcotest.test_case "matched pairs" `Quick test_diff_matched_pairs;
          Alcotest.test_case "empty old" `Quick test_diff_empty_old ] ) ]
