(* Tests for the XPath pattern engine: parser, printer, and the embedding
   semantics of Definitions 6 and 7. *)

open Weblab_xml
open Weblab_xpath
open Weblab_relalg

let check = Alcotest.check
let check_int = check Alcotest.int
let check_str = check Alcotest.string
let check_bool = check Alcotest.bool

let parse = Parser.pattern

(* A table rendered as a sorted list of "col=val" rows, for compact
   assertions. *)
let table_rows t =
  Table.rows t
  |> List.map (fun row ->
         Table.columns t
         |> List.filter (fun c -> c <> "node")
         |> List.map (fun c -> Printf.sprintf "%s=%s" c (Value.to_string (Table.get t row c)))
         |> List.sort compare
         |> String.concat " ")
  |> List.sort compare

let doc () =
  Xml_parser.parse
    {|<R id="r1">
        <T id="r2" kind="a"><C id="c2">hello world</C></T>
        <T id="r3" kind="b">
          <C id="c3">bonjour</C>
          <A id="a3"><L>fr</L></A>
        </T>
        <D><T id="r4"><C id="c4">deep</C></T></D>
      </R>|}

let eval ?require_uri ?guards pattern_str =
  Eval.eval ?require_uri ?guards (doc ()) (parse pattern_str)

(* --- parser --- *)

let test_parse_shapes () =
  let cases =
    [ ("/R", 1); ("//T", 1); ("/R//T", 2); ("//T[$x := @id]/C", 2);
      ("//T[1]", 1); ("//T[@id][A/L = 'fr']", 1);
      ("//T[$x := @id][$p := position()]/C[$r := @id]", 2);
      ("//A[B][$p := position()]/B", 2); ("//*", 1) ]
  in
  List.iter
    (fun (s, steps) ->
      check_int (Printf.sprintf "steps of %s" s) steps (List.length (parse s)))
    cases

let test_parse_variables () =
  let p = parse "//T[$x := @id][$y := @kind]/C[$z := @id]" in
  check (Alcotest.list Alcotest.string) "variables" [ "x"; "y"; "z" ]
    (Ast.variables p);
  let q = parse "//T[$x := @id]/C[@id = $w]" in
  check (Alcotest.list Alcotest.string) "free" [ "w" ] (Ast.free_variables q)

let expect_parse_error s =
  match parse s with
  | _ -> Alcotest.failf "expected parse error for %S" s
  | exception Parser.Error _ -> ()

let test_parse_errors () =
  expect_parse_error "";
  expect_parse_error "T";                  (* no leading slash *)
  expect_parse_error "//T[";
  expect_parse_error "//T[]";
  expect_parse_error "//T[$x := ]";
  expect_parse_error "//T[$x := f(@id)]";  (* binding source must be @a/position() *)
  expect_parse_error "//T[@id = ]";
  expect_parse_error "//T/"

let test_parse_skolem () =
  let p = parse "//C[f($x) = @id]" in
  match p with
  | [ { Ast.preds = [ Ast.Cmp (Ast.Skolem ("f", [ Ast.Var "x" ]), Ast.Eq, Ast.Attr "id") ]; _ } ] ->
    ()
  | _ -> Alcotest.fail "unexpected skolem AST"

let test_parse_boolean () =
  let p = parse "//T[@a = '1' and @b = '2' or not(@c)]" in
  match p with
  | [ { Ast.preds = [ Ast.Or (Ast.And _, Ast.Not _) ]; _ } ] -> ()
  | _ -> Alcotest.fail "unexpected boolean AST (or should be outermost)"

(* --- printer round-trip --- *)

let test_print_roundtrip () =
  let patterns =
    [ "/Resource//NativeContent"; "//TextMediaUnit[1]";
      "//TextMediaUnit[$x := @id]/TextContent";
      "//TextMediaUnit[$x := @id]/Annotation[Language]";
      "//TextMediaUnit[Annotation/Language = 'fr']";
      "//T[@id][$x := @id]/C[$r := @id]";
      "//A[B][$p := position()]/B"; "//C[$p = position()]";
      "//A[$x := @id][@t < 5]"; "//C[f($x) = @id]";
      "//T[@a = '1' and @b != '2']"; "//T[not(@c)]" ]
  in
  List.iter
    (fun s ->
      let p = parse s in
      let printed = Print.pattern_to_string p in
      check_bool (Printf.sprintf "round-trip %s -> %s" s printed) true
        (parse printed = p))
    patterns

(* --- evaluation --- *)

let test_eval_child_vs_descendant () =
  check_int "/R/T" 2 (Table.cardinality (eval "/R/T"));
  check_int "//T" 3 (Table.cardinality (eval "//T"));
  check_int "/R//T" 3 (Table.cardinality (eval "/R//T"));
  check_int "/T (root is R)" 0 (Table.cardinality (eval "/T"));
  check_int "//*" 10 (Table.cardinality (eval ~require_uri:false "//*"))

let test_eval_require_uri () =
  (* //D has no @id: dropped when URIs are required. *)
  check_int "D dropped" 0 (Table.cardinality (eval "//D"));
  check_int "D kept" 1 (Table.cardinality (eval ~require_uri:false "//D"))

let test_eval_bindings () =
  let t = eval "//T[$x := @id]/C" in
  check (Alcotest.list Alcotest.string) "bindings"
    [ "r=c2 x=r2"; "r=c3 x=r3"; "r=c4 x=r4" ]
    (table_rows t)

let test_eval_binding_requires_attr () =
  (* [$x := @kind] drops T nodes without @kind (condition 2 of Def. 4). *)
  let t = eval "//T[$x := @kind]" in
  check (Alcotest.list Alcotest.string) "kinds" [ "r=r2 x=a"; "r=r3 x=b" ]
    (table_rows t)

let test_eval_predicates () =
  check_int "attr equality" 1 (Table.cardinality (eval "//T[@kind = 'a']"));
  check_int "attr inequality" 1 (Table.cardinality (eval "//T[@kind != 'a']"));
  check_int "attr exists" 2 (Table.cardinality (eval "//T[@kind]"));
  check_int "path exists" 1 (Table.cardinality (eval "//T[A/L]"));
  check_int "path equality" 1 (Table.cardinality (eval "//T[A/L = 'fr']"));
  check_int "path inequality none" 0 (Table.cardinality (eval "//T[A/L = 'en']"));
  check_int "and" 1 (Table.cardinality (eval "//T[@kind = 'b' and A/L = 'fr']"));
  check_int "or" 2 (Table.cardinality (eval "//T[@kind = 'a' or A/L = 'fr']"));
  check_int "not" 2 (Table.cardinality (eval "//T[not(A/L)]"))

let test_eval_position () =
  (* //T[1] selects the first T in the candidate list (document order). *)
  let t = eval "//T[1]" in
  check (Alcotest.list Alcotest.string) "first T" [ "r=r2" ] (table_rows t);
  (* /R/T[2] selects the second T child. *)
  let t = eval "/R/T[2]" in
  check (Alcotest.list Alcotest.string) "second T" [ "r=r3" ] (table_rows t);
  (* position() binding *)
  let t = eval "/R/T[$p := position()]" in
  check (Alcotest.list Alcotest.string) "positions" [ "p=1 r=r2"; "p=2 r=r3" ]
    (table_rows t);
  (* position() comparison *)
  let t = eval "/R/T[position() = 2]" in
  check (Alcotest.list Alcotest.string) "pos cmp" [ "r=r3" ] (table_rows t)

let test_eval_position_after_filter () =
  (* Predicates filter stepwise: [@kind = 'b'][1] is the first among the
     remaining candidates. *)
  let t = eval "//T[@kind = 'b'][1]" in
  check (Alcotest.list Alcotest.string) "filtered first" [ "r=r3" ] (table_rows t)

let test_eval_numeric_comparison () =
  let doc =
    Xml_parser.parse
      "<R id=\"r\"><E id=\"e1\" t=\"2\"/><E id=\"e2\" t=\"10\"/></R>"
  in
  let n tbl = Table.cardinality tbl in
  (* numeric, not lexicographic: "10" > "2" *)
  check_int "lt" 1 (n (Eval.eval doc (parse "//E[@t < 10]")));
  check_int "le" 2 (n (Eval.eval doc (parse "//E[@t <= 10]")));
  check_int "gt" 1 (n (Eval.eval doc (parse "//E[@t > 2]")));
  check_int "eq loose" 1 (n (Eval.eval doc (parse "//E[@t = 2]")))

let test_eval_var_guard () =
  let guards = { Eval.visible = (fun _ -> true); env = [ ("w", Value.Str "r3") ] } in
  let t = Eval.eval ~guards (doc ()) (parse "//T[@id = $w]") in
  check (Alcotest.list Alcotest.string) "env var" [ "r=r3" ] (table_rows t)

let test_eval_visibility_guard () =
  let d = doc () in
  (* Hide the subtree rooted at the A annotation. *)
  let a = Option.get (Tree.find_resource d "a3") in
  let hidden = Tree.descendant_or_self d a in
  let guards =
    { Eval.visible = (fun n -> not (List.mem n hidden)); env = [] }
  in
  check_int "A invisible" 0
    (Table.cardinality (Eval.eval ~guards d (parse "//T[A/L]")));
  check_int "A visible by default" 1
    (Table.cardinality (Eval.eval d (parse "//T[A/L]")))

let test_eval_skolem_binding () =
  (* Skolem terms evaluate to canonical ground strings. *)
  let d = doc () in
  let p =
    [ { Ast.axis = Ast.Descendant; test = Ast.Name "T";
        preds = [ Ast.Bind ("x", Ast.Attr "id");
                  Ast.Bind ("sk", Ast.Skolem ("f", [ Ast.Var "x" ])) ] } ]
  in
  let t = Eval.eval d p in
  check (Alcotest.list Alcotest.string) "skolem terms"
    [ "r=r2 sk=f(r2) x=r2"; "r=r3 sk=f(r3) x=r3"; "r=r4 sk=f(r4) x=r4" ]
    (table_rows (Table.project t [ "r"; "x"; "sk" ]))

let test_eval_descendant_or_self_step () =
  let p = Ast.add_descendant_or_self (parse "//T[@kind = 'b']") in
  let t = Eval.eval ~require_uri:false (doc ()) p in
  (* T r3 plus all its element descendants: C, A, L. *)
  check_int "dos count" 4 (Table.cardinality t)

let test_eval_distinct () =
  (* Two T nodes are descendants of both R and D contexts; results stay a
     set. *)
  let t = eval "/R//T//C" in
  check_int "no dups" 3 (Table.cardinality t)

(* --- extended axes and functions --- *)

let axes_doc () =
  Xml_parser.parse
    {|<R id="r1">
        <S id="s1"><A id="a1"/><B id="b1"/><A id="a2"/><C id="c1"/></S>
        <S id="s2"><A id="a3"/></S>
      </R>|}

let axes_eval ?require_uri pat =
  table_rows (Eval.eval ?require_uri (axes_doc ()) (parse pat))

let test_axis_parent () =
  check (Alcotest.list Alcotest.string) "parent" [ "r=s1" ]
    (axes_eval "//B/parent::S");
  check (Alcotest.list Alcotest.string) "parent any" [ "r=s1" ]
    (axes_eval "//B/parent::*");
  check_int "root has no parent" 0
    (List.length (axes_eval "/R/parent::*"))

let test_axis_ancestor () =
  check (Alcotest.list Alcotest.string) "ancestor" [ "r=r1"; "r=s1" ]
    (axes_eval "//B/ancestor::*");
  check (Alcotest.list Alcotest.string) "ancestor-or-self"
    [ "r=b1"; "r=r1"; "r=s1" ]
    (axes_eval "//B/ancestor-or-self::*")

let test_axis_siblings () =
  check (Alcotest.list Alcotest.string) "following" [ "r=a2"; "r=c1" ]
    (axes_eval "//B/following-sibling::*");
  check (Alcotest.list Alcotest.string) "following A only" [ "r=a2" ]
    (axes_eval "//B/following-sibling::A");
  check (Alcotest.list Alcotest.string) "preceding" [ "r=a1" ]
    (axes_eval "//B/preceding-sibling::*")

let test_axis_explicit_names () =
  (* explicit child:: and descendant:: are the implicit forms *)
  check (Alcotest.list Alcotest.string) "child::"
    (axes_eval "/R/S") (axes_eval "/child::R/child::S");
  check (Alcotest.list Alcotest.string) "self::" [ "r=b1" ]
    (axes_eval "//B/self::B");
  check_int "self:: mismatched" 0 (List.length (axes_eval "//B/self::A"))

let test_axis_in_predicates () =
  (* axes inside predicate paths *)
  check (Alcotest.list Alcotest.string) "pred parent" [ "r=b1" ]
    (axes_eval "//B[parent::S]");
  check (Alcotest.list Alcotest.string) "pred sibling" [ "r=a1" ]
    (axes_eval "//A[following-sibling::B]")

let test_fn_last () =
  check (Alcotest.list Alcotest.string) "last()" [ "r=s2" ]
    (axes_eval "/R/S[position() = last()]");
  check (Alcotest.list Alcotest.string) "last child of s1" [ "r=c1" ]
    (axes_eval "//S[@id = 's1']/*[position() = last()]")

let test_fn_count () =
  check (Alcotest.list Alcotest.string) "count = 2" [ "r=s1" ]
    (axes_eval "//S[count(A) = 2]");
  check (Alcotest.list Alcotest.string) "count >= 1" [ "r=s1"; "r=s2" ]
    (axes_eval "//S[count(A) >= 1]");
  check_int "count of nothing" 0 (List.length (axes_eval "//S[count(Z) > 0]"))

let test_fn_strings () =
  check (Alcotest.list Alcotest.string) "contains" [ "r=s1"; "r=s2" ]
    (axes_eval "//S[contains(@id, 's')]");
  check (Alcotest.list Alcotest.string) "starts-with" [ "r=a1"; "r=a2"; "r=a3" ]
    (axes_eval "//*[starts-with(@id, 'a')]");
  check (Alcotest.list Alcotest.string) "ends-with" [ "r=a1"; "r=b1"; "r=c1"; "r=r1"; "r=s1" ]
    (axes_eval "//*[ends-with(@id, '1')]");
  check (Alcotest.list Alcotest.string) "string-length" [ "r=a1"; "r=a2" ]
    (axes_eval "//S[@id = 's1']/*[string-length(@id) = 2 and starts-with(@id, 'a')]")

let test_path_attr_operand () =
  let d =
    Xml_parser.parse
      {|<R id="r"><G id="g1"><M ref="a"/><M ref="b"/></G>
        <G id="g2"><M ref="c"/></G></R>|}
  in
  let rows pat = table_rows (Eval.eval d (parse pat)) in
  check (Alcotest.list Alcotest.string) "attr of path" [ "r=g1" ]
    (rows "//G[M/@ref = 'b']");
  (* existential over several attribute values *)
  check (Alcotest.list Alcotest.string) "both groups" [ "r=g1"; "r=g2" ]
    (rows "//G[M/@ref != 'zzz']");
  (* round-trip *)
  let p = parse "//G[M/@ref = 'b']" in
  check_bool "print/parse" true (parse (Print.pattern_to_string p) = p)

let test_extended_roundtrip () =
  let patterns =
    [ "//B/parent::S"; "//B/ancestor-or-self::*"; "//A[following-sibling::B]";
      "//S[count(A) = 2]"; "//S[position() = last()]";
      "//S[contains(@id, 's')]"; "//A[string-length(@id) > 1]" ]
  in
  List.iter
    (fun str ->
      let p = parse str in
      check_bool str true (parse (Print.pattern_to_string p) = p))
    patterns

let test_matching_nodes () =
  let d = doc () in
  let nodes = Eval.matching_nodes d (parse "//T") in
  check_int "three nodes" 3 (List.length nodes);
  List.iter (fun n -> check_str "name" "T" (Tree.name d n)) nodes

let test_append_stable () =
  (* Append stability decides which sources the Fused backend memoises:
     downward axes and predicates on the context node's attributes only.
     A relative path, count(), a string-value, a position or a
     non-downward axis can change its answer when nodes are appended. *)
  List.iter
    (fun (p, stable) ->
      check_bool p stable (Eval.append_stable (parse p));
      if stable then check_bool (p ^ " is delta-localizable") true
          (Eval.delta_localizable (parse p)))
    [ ("//A[$x := @id]", true);
      ("/R//A[@k = 'v']/B[not(@j)]", true);
      ("//A[@k and contains(@k, 'x')]", true);
      ("//A[B]", false);
      ("//A[count(B) > 0]", false);
      ("//A[B = 'x']", false);
      ("//A[1]", false);
      ("//A[$p := position()]", false);
      ("//A/parent::B", false) ]

let () =
  Alcotest.run "xpath"
    [ ( "parser",
        [ Alcotest.test_case "shapes" `Quick test_parse_shapes;
          Alcotest.test_case "variables" `Quick test_parse_variables;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "skolem" `Quick test_parse_skolem;
          Alcotest.test_case "boolean precedence" `Quick test_parse_boolean ] );
      ( "printer",
        [ Alcotest.test_case "round-trip" `Quick test_print_roundtrip ] );
      ( "eval",
        [ Alcotest.test_case "axes" `Quick test_eval_child_vs_descendant;
          Alcotest.test_case "require uri" `Quick test_eval_require_uri;
          Alcotest.test_case "bindings" `Quick test_eval_bindings;
          Alcotest.test_case "binding needs attr" `Quick test_eval_binding_requires_attr;
          Alcotest.test_case "predicates" `Quick test_eval_predicates;
          Alcotest.test_case "position" `Quick test_eval_position;
          Alcotest.test_case "position after filter" `Quick test_eval_position_after_filter;
          Alcotest.test_case "numeric comparison" `Quick test_eval_numeric_comparison;
          Alcotest.test_case "external variables" `Quick test_eval_var_guard;
          Alcotest.test_case "visibility guard" `Quick test_eval_visibility_guard;
          Alcotest.test_case "skolem values" `Quick test_eval_skolem_binding;
          Alcotest.test_case "descendant-or-self" `Quick test_eval_descendant_or_self_step;
          Alcotest.test_case "distinct" `Quick test_eval_distinct;
          Alcotest.test_case "matching nodes" `Quick test_matching_nodes;
          Alcotest.test_case "append stability" `Quick test_append_stable ] );
      ( "extended axes",
        [ Alcotest.test_case "parent" `Quick test_axis_parent;
          Alcotest.test_case "ancestor" `Quick test_axis_ancestor;
          Alcotest.test_case "siblings" `Quick test_axis_siblings;
          Alcotest.test_case "explicit names" `Quick test_axis_explicit_names;
          Alcotest.test_case "in predicates" `Quick test_axis_in_predicates ] );
      ( "functions",
        [ Alcotest.test_case "last" `Quick test_fn_last;
          Alcotest.test_case "count" `Quick test_fn_count;
          Alcotest.test_case "string functions" `Quick test_fn_strings;
          Alcotest.test_case "path/@attr operand" `Quick test_path_attr_operand;
          Alcotest.test_case "round-trip" `Quick test_extended_roundtrip ] ) ]
