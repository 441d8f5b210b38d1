(* The fused rule-set compiler: trie interning and prefix sharing, CSE
   (identical patterns collapse onto one shared expression), plan
   lowering and join-side choice, the fused pass's bit-identity with
   [Eval.eval], the stable explain dump (golden-pinned, regenerate
   with:  dune exec bin/main.exe -- figures --explain-plan > test/golden/plan.txt),
   and the end-to-end property that the Fused backend matches the
   Online reference bit for bit — links and serialized Turtle — for
   any [jobs] value, with and without injected faults. *)

open Weblab_xpath
open Weblab_workflow
open Weblab_services
open Weblab_prov
open Weblab_compile
open QCheck

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let pat = Parser.pattern

(* ---------- the pattern-prefix trie ---------- *)

let test_trie_sharing () =
  let t = Trie.create () in
  let c1 = Trie.insert t (pat "//A/B") in
  let c2 = Trie.insert t (pat "//A/C") in
  let c3 = Trie.insert t (pat "//A/B") in
  check_int "two-step chain" 2 (List.length c1);
  check_bool "identical pattern interns to the same chain" true (c1 = c3);
  check_int "shared prefix is one node" (List.hd c1) (List.hd c2);
  check_int "prefix traversed by all three occurrences" 3
    (Trie.get t (List.hd c1)).Trie.refs;
  check_int "three distinct (prefix, step) pairs" 3 (Trie.size t);
  check_int "six step occurrences" 6 (Trie.total_refs t);
  check_int "three evaluations saved per pass" 3 (Trie.shared_steps t);
  check_int "leaf chains agree with path" 2
    (List.length (Trie.path t (List.nth c1 1)))

let test_trie_schedule_invariant () =
  (* parent id < child id, so ascending ids are a topological schedule *)
  let t = Trie.create () in
  List.iter
    (fun p -> ignore (Trie.insert t (pat p)))
    [ "//A/B/C"; "//A/B/D"; "//E"; "//A/F" ];
  let rec walk id =
    List.iter
      (fun c ->
        check_bool "parent id < child id" true (id < c);
        walk c)
      (Trie.children t id)
  in
  walk Trie.root;
  check_bool "empty pattern rejected" true
    (try
       ignore (Trie.insert t []);
       false
     with Invalid_argument _ -> true)

(* ---------- CSE and plan lowering ---------- *)

let cr name s t =
  { Plan.cr_name = name; cr_source = pat s; cr_target = pat t; cr_exact = None }

let test_cse_identical_patterns () =
  let plan =
    Plan.compile
      [ ( "svc",
          [ cr "r1" "//A[$x := @id]" "//B[$x := @id]";
            cr "r2" "//A[$x := @id]" "//C[$x := @id]" ] ) ]
  in
  check_int "three distinct expressions for four references" 3
    (Array.length plan.Plan.p_exprs);
  (match plan.Plan.p_services.(0).Plan.sp_rules with
  | [| Plan.Fused { f_src = s1; f_tgt = t1; f_keys = k1; _ };
       Plan.Fused { f_src = s2; f_tgt = t2; _ } |] ->
    check_int "identical source patterns share one expression" s1 s2;
    check_bool "distinct targets stay distinct" true (t1 <> t2);
    check (Alcotest.list Alcotest.string) "join keys" [ "x" ] k1
  | _ -> Alcotest.fail "expected two fused rules");
  check_int "shared source counted twice" 2 (Plan.expr plan 0).Plan.e_refs

let test_exact_rules_lowered () =
  let plan =
    Plan.compile
      [ ( "svc",
          [ { (cr "sk" "//A[$x := @id]" "//B[$x := @id]") with
              Plan.cr_exact = Some "skolem identifier" } ] ) ]
  in
  (match plan.Plan.p_services.(0).Plan.sp_rules.(0) with
  | Plan.Exact { x_reason; _ } ->
    check Alcotest.string "reason preserved" "skolem identifier" x_reason
  | Plan.Fused _ -> Alcotest.fail "exact rule must not fuse");
  let st = Plan.stats plan in
  check_int "counted as exact" 1 st.Plan.s_exact;
  check_int "no fused rules" 0 st.Plan.s_fused;
  check_int "exact rules intern no patterns" 0
    (Array.length plan.Plan.p_exprs)

let test_build_side_from_estimates () =
  (* The estimate decides which side the hash join hashes. *)
  let est p = if p = pat "//Small[$x := @id]" then 1 else 100 in
  let plan =
    Plan.compile ~estimate:est
      [ ( "svc",
          [ cr "a" "//Small[$x := @id]" "//Big[$x := @id]";
            cr "b" "//Big[$x := @id]" "//Small[$x := @id]" ] ) ]
  in
  match plan.Plan.p_services.(0).Plan.sp_rules with
  | [| Plan.Fused { f_build = b1; _ }; Plan.Fused { f_build = b2; _ } |] ->
    check_bool "small source hashed" true (b1 = Plan.Build_source);
    check_bool "small target hashed" true (b2 = Plan.Build_target)
  | _ -> Alcotest.fail "expected two fused rules"

let test_paper_plan () =
  let doc = Weblab_scenario.Paper.initial_document () in
  let rb = Weblab_scenario.Paper.rulebook () in
  let plan = Strategy_fused.compile ~doc rb in
  let st = Plan.stats plan in
  check_bool "paper rulebook fuses rules" true (st.Plan.s_fused > 0);
  check_bool "prefix sharing on the paper rulebook" true
    (st.Plan.s_shared_steps > 0);
  check_bool "CSE never inflates" true
    (st.Plan.s_distinct_patterns <= st.Plan.s_pattern_refs);
  Array.iteri
    (fun i e -> check_int "expression ids are dense" i e.Plan.e_id)
    plan.Plan.p_exprs

(* ---------- the fused pass = Eval.eval, bit for bit ---------- *)

let test_pass_matches_eval () =
  (* One shared pass over the executed paper document must hand back,
     for every expression, the very table [Eval.eval] computes — rows
     AND order. *)
  let e = Weblab_scenario.Paper.run () in
  let doc = e.Weblab_scenario.Paper.doc in
  let crules =
    List.init 4 (fun i ->
        let p = Weblab_scenario.Paper.phi (i + 1) in
        { Plan.cr_name = Printf.sprintf "phi%d" (i + 1);
          cr_source = p;
          cr_target = p;
          cr_exact = None })
  in
  let plan = Plan.compile [ ("test", crules) ] in
  let sp = plan.Plan.p_services.(0) in
  let pass =
    Pass.run plan ~exprs:sp.Plan.sp_src_exprs ~guards:Eval.no_guards doc
  in
  Array.iter
    (fun id ->
      let ex = Plan.expr plan id in
      let fused = Pass.table pass ~expr:id in
      let direct = Eval.eval ~guards:Eval.no_guards doc ex.Plan.e_pattern in
      check (Alcotest.list Alcotest.string) "columns"
        (Weblab_relalg.Table.columns direct)
        (Weblab_relalg.Table.columns fused);
      check_bool "rows and order bit-identical" true
        (Weblab_relalg.Table.rows direct = Weblab_relalg.Table.rows fused))
    sp.Plan.sp_src_exprs;
  check_bool "unknown expression rejected" true
    (try
       ignore (Pass.table pass ~expr:9999);
       false
     with Invalid_argument _ -> true)

let test_pass_keep () =
  (* A pass pruned to the spine of the last nodes keeps, per
     delta-localizable expression, exactly the rows of [Eval.eval] that
     end in those nodes, in order.  The positional expression shares its
     first trie node with two localizable ones; it is not
     delta-localizable, so neither that node nor its own is pruned and
     its table is complete. *)
  let module Tree = Weblab_xml.Tree in
  let e = Weblab_scenario.Paper.run () in
  let doc = e.Weblab_scenario.Paper.doc in
  let positional = pat "//TextMediaUnit[$x := @id]/TextContent[1]" in
  let crules =
    List.mapi
      (fun i p ->
        { Plan.cr_name = Printf.sprintf "p%d" i; cr_source = p;
          cr_target = p; cr_exact = None })
      (positional :: List.init 4 (fun i -> Weblab_scenario.Paper.phi (i + 1)))
  in
  let plan = Plan.compile [ ("test", crules) ] in
  let exprs = plan.Plan.p_services.(0).Plan.sp_src_exprs in
  let lo = Tree.size doc - 6 in
  let spine = Hashtbl.create 16 in
  for n = lo to Tree.size doc - 1 do
    let rec up n =
      if n <> Tree.no_node then begin
        Hashtbl.replace spine n ();
        up (Tree.parent doc n)
      end
    in
    up n
  done;
  let pass =
    Pass.run plan ~exprs ~keep:(Hashtbl.mem spine) ~guards:Eval.no_guards doc
  in
  let ending_in_tail tbl =
    List.filter
      (fun row ->
        match Weblab_relalg.Table.get tbl row "node" with
        | Weblab_relalg.Value.Node n -> n >= lo
        | _ -> false)
      (Weblab_relalg.Table.rows tbl)
  in
  let some_tail_rows = ref false in
  Array.iter
    (fun id ->
      let ex = Plan.expr plan id in
      let pruned = Pass.table pass ~expr:id in
      let direct = Eval.eval ~guards:Eval.no_guards doc ex.Plan.e_pattern in
      if Eval.delta_localizable ex.Plan.e_pattern then begin
        if ending_in_tail direct <> [] then some_tail_rows := true;
        check_bool "tail rows and order kept" true
          (ending_in_tail direct = ending_in_tail pruned)
      end
      else
        check_bool "non-localizable expression evaluated in full" true
          (Weblab_relalg.Table.rows direct = Weblab_relalg.Table.rows pruned))
    exprs;
  check_bool "the tail ends some rows" true !some_tail_rows;
  check_bool "the positional expression is not localizable" false
    (Eval.delta_localizable positional)

(* ---------- the explain dump, golden-pinned ---------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* dune runtest stages the dep next to the binary; dune exec runs from
   the workspace root — accept both. *)
let golden_path () =
  if Sys.file_exists "golden/plan.txt" then "golden/plan.txt"
  else "test/golden/plan.txt"

let test_plan_golden () =
  let doc = Weblab_scenario.Paper.initial_document () in
  let rb = Weblab_scenario.Paper.rulebook () in
  let actual = Strategy_fused.explain ~doc rb in
  let expected = read_file (golden_path ()) in
  if not (String.equal expected actual) then begin
    let n = min (String.length expected) (String.length actual) in
    let rec diff i =
      if i < n && expected.[i] = actual.[i] then diff (i + 1) else i
    in
    let i = diff 0 in
    Alcotest.failf
      "plan dump diverged from the golden file at byte %d:\n\
       expected … %S\n\
      \  actual … %S"
      i
      (String.sub expected i (min 60 (String.length expected - i)))
      (String.sub actual i (min 60 (String.length actual - i)))
  end

let test_explain_deterministic () =
  let doc = Weblab_scenario.Paper.initial_document () in
  let rb = Weblab_scenario.Paper.rulebook () in
  check Alcotest.string "two compilations, one dump"
    (Strategy_fused.explain ~doc rb)
    (Strategy_fused.explain ~doc rb)

(* ---------- Fused = Online, bit for bit ---------- *)

let link_list g =
  Prov_graph.links g
  |> List.filter (fun l -> not l.Prov_graph.inherited)
  |> List.map (fun l ->
         (l.Prov_graph.from_uri, l.Prov_graph.to_uri, l.Prov_graph.rule))
  |> List.sort compare

let rulebook_of services =
  List.filter_map
    (fun svc ->
      let name = Service.name svc in
      Catalog.find name
      |> Option.map (fun e ->
             (name, List.map Rule_parser.parse e.Catalog.rules)))
    services

let plan_faults =
  [ Faulty.Crash; Faulty.Garbage_xml; Faulty.Mutate_committed;
    Faulty.Duplicate_uri ]

let skip_policy =
  { Orchestrator.default_policy with
    retries = 1; backoff_ms = 1.; on_failure = `Skip }

let workload ~seed ~faulty =
  let doc = Workload.make_document ~units:2 ~seed () in
  let services = Workload.standard_pipeline ~extended:true () in
  let rb = rulebook_of services in
  let services =
    if faulty then
      Faulty.wrap_all
        (Faulty.plan ~faults:plan_faults ~rate:0.4 ~seed ())
        services
    else services
  in
  (doc, services, rb)

let run_strategy kind ~jobs ~seed ~faulty =
  let doc, services, rb = workload ~seed ~faulty in
  let exec, g =
    Engine.run_with_strategy ~policy:skip_policy ~jobs kind doc services rb
  in
  (link_list g, Engine.to_turtle ~trace:exec.Engine.trace g)

let prop_fused_equals_online =
  Test.make
    ~name:
      "CSE/trie sharing never changes results: Fused = Online (links and \
       Turtle), jobs in [2..8], with and without faults"
    ~count:20
    (make
       ~print:(fun (seed, jobs, faulty) ->
         Printf.sprintf "seed=%d jobs=%d faulty=%b" seed jobs faulty)
       Gen.(triple (int_bound 1_000_000) (int_range 2 8) bool))
    (fun (seed, jobs, faulty) ->
      let lo, so = run_strategy `Online ~jobs ~seed ~faulty in
      let lf, sf = run_strategy `Fused ~jobs ~seed ~faulty in
      lo = lf && so = sf)

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "compile"
    [ ( "trie",
        [ Alcotest.test_case "prefix sharing and interning" `Quick
            test_trie_sharing;
          Alcotest.test_case "ascending ids are a schedule" `Quick
            test_trie_schedule_invariant ] );
      ( "plan",
        [ Alcotest.test_case "CSE collapses identical patterns" `Quick
            test_cse_identical_patterns;
          Alcotest.test_case "exact rules keep their reason" `Quick
            test_exact_rules_lowered;
          Alcotest.test_case "estimates pick the build side" `Quick
            test_build_side_from_estimates;
          Alcotest.test_case "paper rulebook compiles with sharing" `Quick
            test_paper_plan ] );
      ( "pass",
        [ Alcotest.test_case "fused pass = Eval.eval, bit for bit" `Quick
            test_pass_matches_eval;
          Alcotest.test_case "pruned pass keeps the tail's rows" `Quick
            test_pass_keep ] );
      ( "explain",
        [ Alcotest.test_case "golden plan dump" `Quick test_plan_golden;
          Alcotest.test_case "dump is deterministic" `Quick
            test_explain_deterministic ] );
      ( "properties", to_alcotest [ prop_fused_equals_online ] ) ]
