(* Tests for the rule→XQuery compiler (§6, Examples 8/9), the key-join
   optimizer and the printer, checked through the FLWOR evaluator and
   parser kept as test oracles in [Weblab_test_support]. *)

open Weblab_xml
open Weblab_xpath
open Weblab_relalg
open Weblab_xquery
open Weblab_test_support

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let table_rows t =
  Table.rows t
  |> List.map (fun row ->
         Table.columns t
         |> List.map (fun c ->
                Printf.sprintf "%s=%s" c (Value.to_string (Table.get t row c)))
         |> List.sort compare
         |> String.concat " ")
  |> List.sort compare

let doc () =
  Xml_parser.parse
    {|<R id="r1">
        <T id="r2" s="Norm" t="1"><C id="c2" s="Norm" t="1">text a</C>
          <A id="a2" s="LE" t="2"><L>en</L></A></T>
        <T id="r3" s="Norm" t="1"><C id="c3" s="Norm" t="1">text b</C>
          <A id="a3" s="LE" t="2"><L>fr</L></A></T>
      </R>|}

(* --- direct FLWOR evaluation --- *)

let test_eval_for_path () =
  let q =
    { Xq_ast.clauses =
        [ Xq_ast.For ("t", { Xq_ast.start = `Root;
                             steps = [ (Ast.Descendant, Ast.Name "T") ] }) ];
      where = [];
      return_cols = [ ("id", Xq_ast.Attr_of ("t", "id")) ] }
  in
  check (Alcotest.list Alcotest.string) "for over //T" [ "id=r2"; "id=r3" ]
    (table_rows (Xq_eval.run (doc ()) q))

let test_eval_nested_for () =
  let q =
    { Xq_ast.clauses =
        [ Xq_ast.For ("t", { Xq_ast.start = `Root;
                             steps = [ (Ast.Descendant, Ast.Name "T") ] });
          Xq_ast.For ("c", { Xq_ast.start = `Var "t";
                             steps = [ (Ast.Child, Ast.Name "C") ] }) ];
      where = [];
      return_cols =
        [ ("t", Xq_ast.Attr_of ("t", "id")); ("c", Xq_ast.Attr_of ("c", "id")) ] }
  in
  check (Alcotest.list Alcotest.string) "nested" [ "c=c2 t=r2"; "c=c3 t=r3" ]
    (table_rows (Xq_eval.run (doc ()) q))

let test_eval_where_and_let () =
  let q =
    { Xq_ast.clauses =
        [ Xq_ast.For ("t", { Xq_ast.start = `Root;
                             steps = [ (Ast.Descendant, Ast.Name "T") ] });
          Xq_ast.Let ("x", Xq_ast.Attr_of ("t", "id")) ];
      where = [ Xq_ast.Cmp (Xq_ast.Var_ref "x", Ast.Eq, Xq_ast.String_lit "r3") ];
      return_cols = [ ("x", Xq_ast.Var_ref "x") ] }
  in
  check (Alcotest.list Alcotest.string) "where filters" [ "x=r3" ]
    (table_rows (Xq_eval.run (doc ()) q))

let test_eval_exists_and_path_cmp () =
  let path v steps = { Xq_ast.start = `Var v; steps } in
  let q =
    { Xq_ast.clauses =
        [ Xq_ast.For ("t", { Xq_ast.start = `Root;
                             steps = [ (Ast.Descendant, Ast.Name "T") ] }) ];
      where =
        [ Xq_ast.Exists (path "t" [ (Ast.Child, Ast.Name "A") ]);
          Xq_ast.Path_cmp
            (path "t" [ (Ast.Child, Ast.Name "A"); (Ast.Child, Ast.Name "L") ],
             Ast.Eq, Xq_ast.String_lit "fr") ];
      return_cols = [ ("id", Xq_ast.Attr_of ("t", "id")) ] }
  in
  check (Alcotest.list Alcotest.string) "path compare" [ "id=r3" ]
    (table_rows (Xq_eval.run (doc ()) q))

let test_eval_missing_let_kills_row () =
  (* A let over a missing attribute removes the embedding (condition 2 of
     Definition 4). *)
  let q =
    { Xq_ast.clauses =
        [ Xq_ast.For ("t", { Xq_ast.start = `Root;
                             steps = [ (Ast.Descendant, Ast.Name "T") ] });
          Xq_ast.Let ("x", Xq_ast.Attr_of ("t", "missing")) ];
      where = [];
      return_cols = [ ("x", Xq_ast.Var_ref "x") ] }
  in
  check_int "no rows" 0 (Table.cardinality (Xq_eval.run (doc ()) q))

(* --- compilation --- *)

let test_compile_pattern_matches_eval () =
  (* Compiled query ≡ native embedding evaluation, on patterns in the
     compilable fragment. *)
  let patterns =
    [ "//T[$x := @id]/C"; "//T[A/L = 'fr']"; "//T[$x := @id]/A[L]";
      "/R//C"; "//T[@id]/C[@id != 'c9']" ]
  in
  let d = doc () in
  List.iter
    (fun ps ->
      let p = Parser.pattern ps in
      let native = Eval.eval d p in
      let compiled =
        Xq_eval.run d (Xq_compile.compile_pattern_query ~require_uri:true p)
      in
      let native_rows =
        table_rows (Table.project native (List.filter (fun c -> c <> "node")
                                            (Table.columns native)))
      in
      check (Alcotest.list Alcotest.string) ps native_rows (table_rows compiled))
    patterns

let test_compile_unsupported () =
  let p = Parser.pattern "//T[1]" in
  (match Xq_compile.compile_pattern_query p with
   | _ -> Alcotest.fail "expected Unsupported"
   | exception Xq_compile.Unsupported _ -> ());
  let p = Parser.pattern "//T[$p := position()]" in
  match Xq_compile.compile_pattern_query p with
  | _ -> Alcotest.fail "expected Unsupported"
  | exception Xq_compile.Unsupported _ -> ()

let example9_query () =
  Xq_compile.compile_rule_query
    (Parser.pattern "//T[$x := @id]/C")
    (Parser.pattern "//T[$x := @id]/A[L]")
    ~service:"LE" ~time:2

let test_compile_rule_query () =
  let q = example9_query () in
  let t = Xq_eval.run (doc ()) q in
  check (Alcotest.list Alcotest.string) "provenance rows"
    [ "in=c2 out=a2"; "in=c3 out=a3" ]
    (table_rows t)

(* --- optimizer --- *)

let count_fors q = List.length (Xq_ast.for_vars q)

let test_optimizer_merges () =
  let q = example9_query () in
  let q' = Xq_optimize.merge_key_joins q in
  check_int "fors before" 4 (count_fors q);
  check_int "fors after" 3 (count_fors q');
  (* the join condition disappeared *)
  check_int "where shrank" (List.length q.Xq_ast.where - 1)
    (List.length q'.Xq_ast.where)

let test_optimizer_preserves_semantics () =
  let q = example9_query () in
  let q' = Xq_optimize.merge_key_joins q in
  let d = doc () in
  check (Alcotest.list Alcotest.string) "same results"
    (table_rows (Xq_eval.run d q))
    (table_rows (Xq_eval.run d q'))

let test_optimizer_respects_key_attrs () =
  let q = example9_query () in
  (* @id is not declared a key: nothing merges. *)
  let q' = Xq_optimize.merge_key_joins ~key_attrs:[ "other" ] q in
  check_int "no merge" (count_fors q) (count_fors q')

let test_optimizer_no_false_merge () =
  (* Joining on a non-key or across different paths must not merge. *)
  let q =
    Xq_compile.compile_rule_query
      (Parser.pattern "//C[$x := @id]")
      (Parser.pattern "//A[$x := @id]")
      ~service:"LE" ~time:2
  in
  let q' = Xq_optimize.merge_key_joins q in
  (* paths differ (//C vs //A): the for-clauses stay *)
  check_int "no merge across names" (count_fors q) (count_fors q')

let test_dead_let_elimination () =
  let q =
    { Xq_ast.clauses =
        [ Xq_ast.For ("t", { Xq_ast.start = `Root;
                             steps = [ (Ast.Descendant, Ast.Name "T") ] });
          Xq_ast.Let ("unused", Xq_ast.Attr_of ("t", "id"));
          Xq_ast.Let ("used", Xq_ast.Attr_of ("t", "id")) ];
      where = [];
      return_cols = [ ("u", Xq_ast.Var_ref "used") ] }
  in
  (* no key join to merge: only the dead-let sweep applies *)
  let q' = Xq_optimize.merge_key_joins q in
  check_int "lets" 1 (List.length (Xq_ast.let_defs q'))

(* --- text parser (round-trips with the printer) --- *)

let test_parse_examples_roundtrip () =
  (* Every query the compiler generates prints to text the parser reads
     back with identical semantics. *)
  let d = doc () in
  let queries =
    [ example9_query ();
      Xq_optimize.merge_key_joins (example9_query ());
      Xq_compile.compile_pattern_query (Parser.pattern "//T[$x := @id]/C") ]
  in
  List.iter
    (fun q ->
      let printed = Xq_print.to_string q in
      let q' = Xq_parser.parse printed in
      check (Alcotest.list Alcotest.string)
        (String.concat " " (String.split_on_char '\n' printed))
        (table_rows (Xq_eval.run d q))
        (table_rows (Xq_eval.run d q')))
    queries

let test_parse_literal_query () =
  (* The paper's Example 9 query, typed in as text. *)
  let q =
    Xq_parser.parse
      "for $s1 in //T, $s2 in $s1/C, $t2 in $s1/A \
       let $x1 := $s1/@id \
       where $t2/L and $s2/@t < 2 and $t2/@t = 2 and $t2/@s = 'LE' \
       return <prov>{$s2/@id} -> {$t2/@id}</prov>"
  in
  check (Alcotest.list Alcotest.string) "literal query"
    [ "in=c2 out=a2"; "in=c3 out=a3" ]
    (table_rows (Xq_eval.run (doc ()) q))

let test_parse_emb_constructor () =
  let q =
    Xq_parser.parse
      "for $v1 in //T let $x := $v1/@id return <emb><r>{$x}</r></emb>"
  in
  check (Alcotest.list Alcotest.string) "emb" [ "r=r2"; "r=r3" ]
    (table_rows (Xq_eval.run (doc ()) q))

let test_parse_errors () =
  let expect input =
    match Xq_parser.parse input with
    | _ -> Alcotest.failf "expected parse error for %S" input
    | exception Xq_parser.Error _ -> ()
  in
  expect "";
  expect "for $x return <emb></emb>";          (* missing 'in path' *)
  expect "for $x in //T return <what>{$x}</what>";
  expect "for $x in //T where return <emb></emb>";
  expect "for $x in //T return <prov>{$x/@id}</prov>";  (* no arrow *)
  expect "for $x in //T return <emb><a>{$x/@id}</b></emb>"

(* --- printer --- *)

let test_print_shape () =
  let q = example9_query () in
  let s = Xq_print.to_string q in
  let contains needle =
    let nh = String.length s and nn = String.length needle in
    let rec loop i = i + nn <= nh && (String.sub s i nn = needle || loop (i + 1)) in
    loop 0
  in
  check_bool "for" true (contains "for $s1 in //T");
  check_bool "let" true (contains "let $x1 := $s1/@id");
  check_bool "where" true (contains "where");
  check_bool "temporal" true (contains "$s2/@t < 2");
  check_bool "service" true (contains "$t2/@s = 'LE'");
  check_bool "return" true (contains "return <prov>{$s2/@id} -> {$t2/@id}</prov>")

let () =
  Alcotest.run "xquery"
    [ ( "eval",
        [ Alcotest.test_case "for over path" `Quick test_eval_for_path;
          Alcotest.test_case "nested for" `Quick test_eval_nested_for;
          Alcotest.test_case "where + let" `Quick test_eval_where_and_let;
          Alcotest.test_case "exists + path compare" `Quick test_eval_exists_and_path_cmp;
          Alcotest.test_case "missing let" `Quick test_eval_missing_let_kills_row ] );
      ( "compile",
        [ Alcotest.test_case "pattern query ≡ eval" `Quick test_compile_pattern_matches_eval;
          Alcotest.test_case "unsupported features" `Quick test_compile_unsupported;
          Alcotest.test_case "rule query" `Quick test_compile_rule_query ] );
      ( "optimize",
        [ Alcotest.test_case "merges key join" `Quick test_optimizer_merges;
          Alcotest.test_case "preserves semantics" `Quick test_optimizer_preserves_semantics;
          Alcotest.test_case "key attrs respected" `Quick test_optimizer_respects_key_attrs;
          Alcotest.test_case "no false merge" `Quick test_optimizer_no_false_merge;
          Alcotest.test_case "dead lets" `Quick test_dead_let_elimination ] );
      ( "text parser",
        [ Alcotest.test_case "round-trips" `Quick test_parse_examples_roundtrip;
          Alcotest.test_case "literal query" `Quick test_parse_literal_query;
          Alcotest.test_case "emb constructor" `Quick test_parse_emb_constructor;
          Alcotest.test_case "errors" `Quick test_parse_errors ] );
      ( "print", [ Alcotest.test_case "shape" `Quick test_print_shape ] ) ]
