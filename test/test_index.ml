(* The document index and the join/evaluation fast paths it enables.

   Unit tests pin the index structures themselves (label lists in
   document order, pre/post-order intervals, snapshot invalidation);
   property tests are differential: the indexed evaluator against the
   traversal evaluator, the hash join against the nested-loop join, and
   the full Rewrite strategy against Replay on random workflows — the
   fast paths must be invisible except in time. *)

open Weblab_xml
open Weblab_workflow
open Weblab_prov
open QCheck

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_nodes = Alcotest.(check (list int))

let sample_doc () =
  Xml_parser.parse
    "<Resource id=\"r1\"><MediaUnit id=\"mu1\" s=\"Loader\" t=\"1\">\
     <Annotation s=\"Tagger\" t=\"2\">hi</Annotation>\
     <Annotation s=\"Tagger\" t=\"3\"><Language>fr</Language></Annotation>\
     </MediaUnit><MediaUnit id=\"mu2\"><Annotation s=\"Other\" t=\"2\"/>\
     </MediaUnit></Resource>"

(* ---------- unit: index structures ---------- *)

let test_by_label () =
  let doc = sample_doc () in
  let idx = Index.build doc in
  check_nodes "labels in document order"
    (Tree.descendant_or_self doc (Tree.root doc)
    |> List.filter (fun n -> Tree.is_element doc n && Tree.name doc n = "Annotation"))
    (Index.nodes_with_label idx "Annotation");
  check_int "label_count" 3 (Index.label_count idx "Annotation");
  check_int "absent label" 0 (Index.label_count idx "Nope")

let test_intervals () =
  let doc = sample_doc () in
  let idx = Index.build doc in
  let root = Tree.root doc in
  Tree.iter_subtree doc root (fun n ->
      Tree.iter_subtree doc root (fun m ->
          check_bool
            (Printf.sprintf "strictly_below %d %d" n m)
            (Tree.is_ancestor doc ~ancestor:n m)
            (Index.strictly_below idx ~ancestor:n m);
          check_bool
            (Printf.sprintf "below_or_self %d %d" n m)
            (n = m || Tree.is_ancestor doc ~ancestor:n m)
            (Index.below_or_self idx ~ancestor:n m)));
  Tree.iter_subtree doc root (fun n ->
      check_int
        (Printf.sprintf "subtree_size %d" n)
        (List.length (Tree.descendant_or_self doc n))
        (Index.subtree_size idx n))

let test_snapshot_invalidation () =
  let doc = sample_doc () in
  let idx1 = Index.build doc in
  check_bool "valid_for" true (Index.valid_for idx1 doc);
  ignore (Tree.new_element doc ~parent:(Tree.root doc) "Extra");
  check_bool "append invalidates" false (Index.valid_for idx1 doc);
  let idx2 = Index.build doc in
  check_bool "rebuilt index valid" true (Index.valid_for idx2 doc);
  check_int "new node covered" 1 (Index.label_count idx2 "Extra")

(* ---------- generators (documents with provenance-shaped attributes) ---------- *)

let gen_name = Gen.oneofl [ "A"; "B"; "C"; "D" ]

(* Attribute pool biased towards the provenance attributes the §4
   rewriting compares ([@s], [@t]). *)
let gen_attr =
  Gen.oneofl
    [ ("id", "r1"); ("id", "r2"); ("id", "r3"); ("s", "Svc1"); ("s", "Svc2");
      ("t", "1"); ("t", "2"); ("k", "x"); ("k", "y") ]

let rec gen_fragment doc parent depth st =
  let name = gen_name st in
  let attrs =
    List.init (Gen.int_bound 2 st) (fun _ -> gen_attr st)
    |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)
  in
  let n = Tree.new_element doc ~parent name ~attrs in
  if Gen.bool st then ignore (Tree.new_text doc ~parent:n "txt");
  if depth > 0 then
    for _ = 1 to Gen.int_bound 2 st do
      ignore (gen_fragment doc n (depth - 1) st)
    done

let gen_doc : Tree.t Gen.t =
 fun st ->
  let doc = Tree.create () in
  let root = Tree.new_element doc ~parent:Tree.no_node "R" ~attrs:[ ("id", "root") ] in
  for _ = 1 to 1 + Gen.int_bound 3 st do
    gen_fragment doc root 2 st
  done;
  doc

let arb_doc = make ~print:(fun d -> Printer.to_string ~indent:true d) gen_doc

(* Patterns exercising every candidate-generation path: descendant and
   child axes, name and wildcard tests, attribute equalities in every
   predicate slot, positional predicates, binds, and nested paths. *)
let gen_pred ~var_counter st =
  let open Weblab_xpath.Ast in
  match Gen.int_bound 7 st with
  | 0 -> Index (1 + Gen.int_bound 2 st)
  | 1 -> Exists_attr (fst (gen_attr st))
  | 2 ->
    incr var_counter;
    Bind (Printf.sprintf "x%d" !var_counter, Attr (fst (gen_attr st)))
  | 3 | 4 ->
    let a, v = gen_attr st in
    if Gen.bool st then Cmp (Attr a, Eq, Lit v) else Cmp (Lit v, Eq, Attr a)
  | 5 -> Cmp (Position, Eq, Last)
  | 6 -> Cmp (Attr "t", Eq, Num (1 + Gen.int_bound 2 st))
  | _ ->
    Exists_path [ { raxis = Child; rtest = Name (gen_name st) } ]

let gen_pattern : Weblab_xpath.Ast.pattern Gen.t =
 fun st ->
  let open Weblab_xpath.Ast in
  let var_counter = ref 0 in
  List.init
    (1 + Gen.int_bound 2 st)
    (fun _ ->
      let axis =
        match Gen.int_bound 5 st with
        | 0 | 1 -> Descendant
        | 2 | 3 -> Child
        | 4 -> Descendant_or_self
        | _ -> Self
      in
      let test = if Gen.int_bound 4 st = 0 then Any else Name (gen_name st) in
      { axis; test;
        preds = List.init (Gen.int_bound 3 st) (fun _ -> gen_pred ~var_counter st) })

let arb_pattern = make ~print:Weblab_xpath.Print.pattern_to_string gen_pattern

let count = 200

(* ---------- property: indexed evaluation ≡ traversal evaluation ----------

   [Eval.eval] without an index is the reference traversal; the indexed
   side is handed an explicit [Index.build] of the same document. *)

let rows_exactly_equal a b =
  let open Weblab_relalg in
  Table.columns a = Table.columns b
  && List.length (Table.rows a) = List.length (Table.rows b)
  && List.for_all2 (fun ra rb -> Array.for_all2 Value.equal ra rb)
       (Table.rows a) (Table.rows b)

let prop_indexed_eval_equals_unindexed =
  Test.make ~name:"Eval.eval (indexed) ≡ Eval.eval (traversal)" ~count
    (pair arb_doc arb_pattern)
    (fun (doc, pat) ->
      let index = Index.build doc in
      List.for_all
        (fun require_uri ->
          rows_exactly_equal
            (Weblab_xpath.Eval.eval ~require_uri ~index doc pat)
            (Weblab_xpath.Eval.eval ~require_uri doc pat))
        [ true; false ])

(* The same under a visibility guard (the Rewrite strategy's situation):
   the index is built over the whole arena but must honor the guard.
   Half the patterns open with a bare [//Name] step, whose candidates
   come straight from the label postings; the guard hides about half of
   the elements any named step of the pattern matches, and an arbitrary
   eighth of the other nodes. *)
let arb_guarded_pattern =
  make ~print:Weblab_xpath.Print.pattern_to_string (fun st ->
      let pat = gen_pattern st in
      if Gen.bool st then
        { Weblab_xpath.Ast.axis = Descendant; test = Name (gen_name st); preds = [] }
        :: pat
      else pat)

let prop_indexed_eval_guarded =
  Test.make ~name:"indexed ≡ unindexed under visibility guards" ~count
    (triple arb_doc arb_guarded_pattern (make Gen.(int_bound 1000)))
    (fun (doc, pat, salt) ->
      let named =
        List.filter_map
          (fun (s : Weblab_xpath.Ast.step) ->
            match s.test with Name l -> Some l | Any -> None)
          pat
      in
      let hash n = (n * 2654435761 + salt) lsr 4 in
      let visible n =
        if Tree.is_element doc n && List.mem (Tree.name doc n) named then
          hash n land 1 = 0
        else hash n land 7 <> 0
      in
      let guards = { Weblab_xpath.Eval.visible; env = [] } in
      rows_exactly_equal
        (Weblab_xpath.Eval.eval ~require_uri:false ~guards
           ~index:(Index.build doc) doc pat)
        (Weblab_xpath.Eval.eval ~require_uri:false ~guards doc pat))

(* A prebuilt index for the *wrong* (smaller) snapshot must be ignored,
   not trusted. *)
let prop_stale_index_ignored =
  Test.make ~name:"stale index is never trusted" ~count:50
    (pair arb_doc arb_pattern)
    (fun (doc, pat) ->
      let stale = Index.build doc in
      ignore (Tree.new_element doc ~parent:(Tree.root doc) "A" ~attrs:[ ("s", "Svc1") ]);
      rows_exactly_equal
        (Weblab_xpath.Eval.eval ~require_uri:false ~index:stale doc pat)
        (Weblab_xpath.Eval.eval ~require_uri:false doc pat))

(* ---------- property: hash join ≡ nested-loop join ---------- *)

(* Small value pools force duplicate join keys; occasional empty tables
   and disjoint schemas cover the degenerate shapes. *)
let gen_join_pair : (Weblab_relalg.Table.t * Weblab_relalg.Table.t) Gen.t =
 fun st ->
  let open Weblab_relalg in
  let cols_a, cols_b =
    match Gen.int_bound 3 st with
    | 0 -> ([ "a"; "k" ], [ "k"; "b" ])   (* one shared column *)
    | 1 -> ([ "a"; "k"; "l" ], [ "k"; "l"; "b" ])  (* two shared *)
    | 2 -> ([ "a" ], [ "b" ])             (* cross product *)
    | _ -> ([ "k" ], [ "k" ])             (* all shared *)
  in
  let value () =
    match Gen.int_bound 3 st with
    | 0 -> Value.Str (Gen.oneofl [ "u"; "v"; "5" ] st)
    | 1 -> Value.Int (Gen.int_bound 5 st)
    | _ -> Value.Node (Gen.int_bound 3 st)
  in
  let table cols =
    let t = Table.create cols in
    for _ = 1 to Gen.int_bound 8 st do   (* int_bound includes 0: empty tables *)
      Table.add_row t (Array.of_list (List.map (fun _ -> value ()) cols))
    done;
    t
  in
  (table cols_a, table cols_b)

let arb_join_pair =
  make
    ~print:(fun (a, b) ->
      Weblab_relalg.Table.to_string a ^ "\n⋈\n" ^ Weblab_relalg.Table.to_string b)
    gen_join_pair

let prop_hash_join_equals_nested_loop =
  Test.make ~name:"hash_join ≡ nested_loop_join (exact row sequence)" ~count
    arb_join_pair
    (fun (a, b) ->
      let open Weblab_relalg in
      let h = Table.hash_join a b
      and n = Weblab_test_support.Oracle_join.nested_loop_join a b in
      Table.columns h = Table.columns n
      && Table.rows h = Table.rows n)

let prop_hash_join_empty =
  Test.make ~name:"join with an empty relation is empty" ~count:50 arb_join_pair
    (fun (a, _) ->
      let open Weblab_relalg in
      let empty = Table.create (Table.columns a) in
      Table.cardinality (Table.hash_join a empty) = 0
      && Table.cardinality (Table.hash_join empty a) = 0)

(* ---------- property: the indexed Rewrite strategy end to end ---------- *)

(* Random append-only workflows (as in test_props, with provenance-shaped
   attributes): the Rewrite strategy — indexed evaluation, memoized
   source/target tables, hash joins — must produce a graph identical in
   every component to Replay's. *)
(* Workflow documents need globally unique @id values (the orchestrator
   enforces URI uniqueness), so fragments appended during a run draw ids
   from a counter instead of the small pool above. *)
let uid = ref 0

let rec gen_wf_fragment doc parent depth st =
  let attrs =
    (if Gen.bool st then begin
       incr uid;
       [ ("id", Printf.sprintf "u%d" !uid) ]
     end
     else [])
    @ (if Gen.bool st then [ ("k", Gen.oneofl [ "x"; "y" ] st) ] else [])
  in
  let n = Tree.new_element doc ~parent (gen_name st) ~attrs in
  if Gen.bool st then ignore (Tree.new_text doc ~parent:n "txt");
  if depth > 0 then
    for _ = 1 to Gen.int_bound 2 st do
      ignore (gen_wf_fragment doc n (depth - 1) st)
    done

let gen_service i : Service.t Gen.t =
 fun st ->
  let seeds = List.init (1 + Gen.int_bound 1 st) (fun _ -> Gen.int_bound 1_000_000 st) in
  Service.inproc ~name:(Printf.sprintf "Svc%d" i) ~description:"" (fun doc ->
      List.iter
        (fun seed ->
          gen_wf_fragment doc (Tree.root doc) 1 (Random.State.make [| seed |]))
        seeds)

let gen_rule : Rule.t Gen.t =
 fun st ->
  let open Weblab_xpath.Ast in
  let step name preds = { axis = Descendant; test = Name name; preds } in
  let bind x a = Bind (x, Attr a) in
  let shared = Gen.bool st in
  Rule.make ~name:"q"
    ~source:[ step (gen_name st) (if shared then [ bind "x" "k" ] else []) ]
    ~target:[ step (gen_name st) (if shared then [ bind "x" "k" ] else []) ]
    ()

let gen_workflow : (Tree.t * Service.t list * Strategy.rulebook) Gen.t =
 fun st ->
  let doc = Weblab_workflow.Orchestrator.initial_document () in
  for _ = 1 to 1 + Gen.int_bound 2 st do
    gen_wf_fragment doc (Tree.root doc) 2 st
  done;
  let services = List.init (1 + Gen.int_bound 3 st) (fun i -> gen_service (i + 1) st) in
  let rb =
    List.map
      (fun svc ->
        (Service.name svc, List.init (Gen.int_bound 2 st) (fun _ -> gen_rule st)))
      services
  in
  (doc, services, rb)

let arb_workflow =
  make
    ~print:(fun (doc, services, _) ->
      Printf.sprintf "doc=%s services=%s" (Printer.to_string doc)
        (String.concat "," (List.map Service.name services)))
    gen_workflow

let graph_signature g =
  let links =
    Prov_graph.links g
    |> List.map (fun l ->
           (l.Prov_graph.from_uri, l.Prov_graph.to_uri, l.Prov_graph.rule,
            l.Prov_graph.inherited))
    |> List.sort compare
  in
  let labels =
    Prov_graph.labeled_resources g
    |> List.map (fun (u, c) -> (u, c.Trace.service, c.Trace.time))
    |> List.sort compare
  in
  let members =
    Prov_graph.skolem_entities g
    |> List.concat_map (fun e -> List.map (fun m -> (e, m)) (Prov_graph.members g e))
    |> List.sort compare
  in
  (links, labels, members)

let prop_rewrite_identical_to_replay =
  Test.make ~name:"indexed Rewrite graph ≡ Replay graph (all components)"
    ~count:80 arb_workflow
    (fun (doc, services, rb) ->
      let exec = Engine.run doc services in
      graph_signature (Engine.provenance ~strategy:`Rewrite exec rb)
      = graph_signature (Engine.provenance ~strategy:`Replay exec rb))

(* Duplicated rules (the memoization hot case) must not duplicate or drop
   links. *)
let prop_rewrite_duplicate_rules =
  Test.make ~name:"rule duplication changes nothing but rule names" ~count:40
    arb_workflow
    (fun (doc, services, rb) ->
      let dup =
        List.map
          (fun (svc, rules) ->
            ( svc,
              List.concat_map
                (fun r ->
                  List.init 3 (fun i ->
                      Rule.make
                        ~name:(Printf.sprintf "%s#%d" (Rule.name r) i)
                        ~source:(Rule.source r) ~target:(Rule.target r) ()))
                rules ))
          rb
      in
      let exec = Engine.run doc services in
      let strip (links, labels, members) =
        (List.map (fun (f, t, _, i) -> (f, t, i)) links |> List.sort_uniq compare,
         labels, members)
      in
      strip (graph_signature (Engine.provenance ~strategy:`Rewrite exec dup))
      = strip (graph_signature (Engine.provenance ~strategy:`Rewrite exec rb)))

(* ---------- unit: numeric bypass ---------- *)

(* [@t = 5] compares numerically (Num operand, so "05" matches): the
   indexed evaluator must find both spellings, as the traversal does. *)
let test_loose_numeric_not_narrowed () =
  let doc =
    Xml_parser.parse
      "<R id=\"root\"><A t=\"05\"/><A t=\"5\"/><A t=\"6\"/></R>"
  in
  let pat = Weblab_xpath.Parser.pattern "//A[@t = 5]" in
  (match pat with
   | [ { Weblab_xpath.Ast.preds = [ Weblab_xpath.Ast.Cmp (_, _, Weblab_xpath.Ast.Num 5) ]; _ } ] -> ()
   | _ -> Alcotest.fail "expected a Num comparison (bare 5 must not parse as a string)");
  let indexed =
    Weblab_xpath.Eval.eval ~require_uri:false ~index:(Index.build doc) doc pat
  in
  let unindexed = Weblab_xpath.Eval.eval ~require_uri:false doc pat in
  check_bool "indexed ≡ unindexed" true (rows_exactly_equal indexed unindexed);
  check_int "matches both numeric spellings" 2
    (List.length (Weblab_relalg.Table.rows indexed))

(* A child step guarded by [@s = 'v'] (the form [target_service] appends
   to a target's last step) costs what the context's children cost, not
   what the document holds of [@s = 'v']: 2,000 [<A>], each with one
   [<B s="X">] child, evaluated from 2,000 [A] contexts.  Copying the
   2,000-entry [s = X] posting for every context would allocate 6,000
   minor words per context (three per list cell); the bound is a tenth
   of one copy. *)
let test_guarded_child_step_allocation () =
  let n = 2000 in
  let doc = Tree.create () in
  let root = Tree.new_element doc ~parent:Tree.no_node "R" ~attrs:[ ("id", "root") ] in
  for _ = 1 to n do
    let a = Tree.new_element doc ~parent:root "A" in
    ignore (Tree.new_element doc ~parent:a "B" ~attrs:[ ("s", "X") ])
  done;
  let pat = Weblab_xpath.Parser.pattern "//A/B[@s = 'X']" in
  let index = Index.build doc in
  let w0 = Gc.minor_words () in
  let indexed = Weblab_xpath.Eval.eval ~require_uri:false ~index doc pat in
  let per_context = (Gc.minor_words () -. w0) /. float_of_int n in
  check_bool "indexed ≡ unindexed" true
    (rows_exactly_equal indexed
       (Weblab_xpath.Eval.eval ~require_uri:false doc pat));
  check_int "every B matches" n (List.length (Weblab_relalg.Table.rows indexed));
  check_bool
    (Printf.sprintf "%.0f minor words per context, at most 600" per_context)
    true (per_context <= 600.)

(* ---------- incremental extension ---------- *)

(* An extended index must be indistinguishable from a fresh build on
   every query surface: label postings, interval containment and subtree
   sizes.  Only the order of the pre/post
   keys is observable, never their values, so the comparison goes through
   the query API. *)
let same_answers doc idx fresh =
  let labels =
    let acc = ref [] in
    Tree.iter_subtree doc (Tree.root doc) (fun n ->
        if Tree.is_element doc n then acc := Tree.name doc n :: !acc);
    List.sort_uniq compare !acc
  in
  let nodes = Tree.descendant_or_self doc (Tree.root doc) in
  List.for_all
    (fun l -> Index.nodes_with_label idx l = Index.nodes_with_label fresh l)
    labels
  && List.for_all
       (fun n ->
         Index.subtree_size idx n = Index.subtree_size fresh n
         && List.for_all
              (fun m ->
                Index.strictly_below idx ~ancestor:n m
                = Index.strictly_below fresh ~ancestor:n m
                && Index.below_or_self idx ~ancestor:n m
                   = Index.below_or_self fresh ~ancestor:n m)
              nodes)
       nodes

let test_extend_basic () =
  let doc = sample_doc () in
  let idx = Index.build doc in
  let extra = Tree.new_element doc ~parent:(Tree.root doc) "Extra" in
  ignore (Tree.new_element doc ~parent:extra "Annotation" ~attrs:[ ("t", "9") ]);
  check_bool "extend succeeds" true (Index.extend idx doc);
  check_bool "valid after extend" true (Index.valid_for idx doc);
  check_int "new label indexed" 1 (Index.label_count idx "Extra");
  check_int "nested label indexed" 4 (Index.label_count idx "Annotation");
  check_bool "matches a fresh build" true (same_answers doc idx (Index.build doc))

let test_extend_promotion () =
  (* URI promotion adds attributes to an already-indexed node, which a
     size-based staleness check cannot see; no posting covers attributes,
     so extending over the appended tail alone still matches a fresh
     build, and indexed evaluation of a guard on the promoted node agrees
     with the traversal. *)
  let doc = sample_doc () in
  let idx = Index.build doc in
  let lang =
    List.find
      (fun n -> Tree.is_element doc n && Tree.name doc n = "Language")
      (Tree.descendant_or_self doc (Tree.root doc))
  in
  Tree.set_uri doc lang "r9";
  Tree.set_service_label doc lang "Promoter" 4;
  ignore (Tree.new_element doc ~parent:(Tree.root doc) "Extra");
  check_bool "extend after promotion" true (Index.extend idx doc);
  check_bool "promoted node resolvable" true
    (Tree.find_resource doc "r9" = Some lang);
  check_bool "matches a fresh build" true (same_answers doc idx (Index.build doc));
  let pat = Weblab_xpath.Parser.pattern "//Annotation/Language[@s = 'Promoter']" in
  let indexed = Weblab_xpath.Eval.eval ~index:idx doc pat in
  check_bool "guard on the promoted node: indexed ≡ unindexed" true
    (rows_exactly_equal indexed (Weblab_xpath.Eval.eval doc pat));
  check_int "the promoted node matches" 1
    (List.length (Weblab_relalg.Table.rows indexed))

let test_extend_checkpoint_restore () =
  (* The satellite regression: append → checkpoint → failing call →
     restore → append.  The restore bumps the arena generation, so the
     in-place postings must be refused, never served. *)
  let doc = sample_doc () in
  let idx = Index.build doc in
  ignore (Tree.new_element doc ~parent:(Tree.root doc) "Extra");
  check_bool "committed append extends" true (Index.extend idx doc);
  let ck = Tree.checkpoint doc in
  ignore (Tree.new_element doc ~parent:(Tree.root doc) "Doomed");
  ignore (Tree.new_element doc ~parent:(Tree.root doc) "Doomed");
  Tree.restore doc ck;
  check_bool "extend refused after restore" false (Index.extend idx doc);
  check_bool "index invalidated" false (Index.valid_for idx doc);
  check_int "no ghost postings" 0 (Index.label_count idx "Doomed");
  (* the amortized recovery: rebuild once, then extension works again *)
  let idx = Index.build doc in
  ignore (Tree.new_element doc ~parent:(Tree.root doc) "After");
  check_bool "extend after rebuild" true (Index.extend idx doc);
  check_int "post-restore append indexed" 1 (Index.label_count idx "After");
  check_bool "matches a fresh build" true (same_answers doc idx (Index.build doc))

let test_extend_band_exhaustion () =
  (* Ever-deeper nesting into freshly appended nodes divides the interior
     key bands until allocation fails; [extend] must then refuse (and keep
     refusing) rather than emit inconsistent keys, and a rebuild restores
     full gaps.  Answers must match a fresh build at every step. *)
  let doc = sample_doc () in
  let idx = ref (Index.build doc) in
  let parent = ref (Tree.root doc) in
  let rebuilds = ref 0 in
  for i = 1 to 30 do
    parent := Tree.new_element doc ~parent:!parent "N";
    if not (Index.extend !idx doc) then begin
      check_bool "exhausted index stays invalid" false (Index.valid_for !idx doc);
      incr rebuilds;
      idx := Index.build doc
    end;
    if i mod 5 = 0 then
      check_bool
        (Printf.sprintf "matches fresh build at depth %d" i)
        true
        (same_answers doc !idx (Index.build doc))
  done;
  check_bool "exhaustion forced at least one rebuild" true (!rebuilds > 0)

(* Each "call" appends a batch of fragments under several committed
   elements, mid-document as often as at the end, so one extension merges
   many nodes into the middle of a posting; some calls also promote
   committed elements (a fresh "id", and the "s"/"t" labels the Recorder
   adds), which the extension need not see. *)
let prop_extend_equals_rebuild =
  Test.make ~name:"extend ≡ fresh build on random appends" ~count:100
    (pair arb_doc (make Gen.(int_bound 1_000_000)))
    (fun (doc, seed) ->
      let idx = ref (Index.build doc) in
      let st = Random.State.make [| seed |] in
      let ok = ref true in
      let rec pick pred tries =
        let n = Random.State.int st (Tree.size doc) in
        if pred n then Some n else if tries > 20 then None else pick pred (tries + 1)
      in
      for call = 1 to 1 + Random.State.int st 4 do
        let old_size = Tree.size doc in
        if Random.State.bool st then
          for _ = 1 to 1 + Random.State.int st 2 do
            match
              pick (fun n -> Tree.is_element doc n && Tree.uri doc n = None) 0
            with
            | Some n when n < old_size ->
              Tree.set_uri doc n (Printf.sprintf "p%d" n);
              if Random.State.bool st && Tree.attr doc n "s" = None
                 && Tree.attr doc n "t" = None
              then Tree.set_service_label doc n "Svc3" call
            | Some _ | None -> ()
          done;
        for _ = 1 to 1 + Random.State.int st 5 do
          match pick (Tree.is_element doc) 0 with
          | Some p -> gen_fragment doc p (Random.State.int st 3) st
          | None -> ()
        done;
        if not (Index.extend !idx doc) then
          idx := Index.build doc;
        ok := !ok && same_answers doc !idx (Index.build doc)
      done;
      !ok)

(* The index costs less per node than the arena it indexes.  Probe: the
   256-unit workload document (seed 7) after a 9-call catalog chain,
   15,775 nodes and 5,910 resources.  The index's own live bytes (its
   reachable words minus the tree's) read 38.6 a node with label postings,
   pre/post keys and subtree sizes only; the bound is that plus about 15%. *)
let test_bytes_per_node () =
  let doc = Weblab_services.Workload.make_document ~units:256 ~seed:7 () in
  ignore
    (Orchestrator.execute doc (Weblab_services.Workload.chain_pipeline 9));
  let bytes v = Obj.reachable_words (Obj.repr v) * (Sys.word_size / 8) in
  let idx = Index.build doc in
  let per_node =
    float_of_int (bytes (doc, idx) - bytes doc) /. float_of_int (Tree.size doc)
  in
  check_bool (Printf.sprintf "index %.1f B/node, at most 44" per_node) true
    (per_node <= 44.)

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "index"
    [ ( "structures",
        [ Alcotest.test_case "by label" `Quick test_by_label;
          Alcotest.test_case "pre/post intervals" `Quick test_intervals;
          Alcotest.test_case "snapshot invalidation" `Quick
            test_snapshot_invalidation;
          Alcotest.test_case "loose numeric bypasses index" `Quick
            test_loose_numeric_not_narrowed;
          Alcotest.test_case "guarded child step allocates per child" `Quick
            test_guarded_child_step_allocation;
          Alcotest.test_case "bytes per node" `Quick test_bytes_per_node ] );
      ( "extension",
        Alcotest.test_case "append extends in place" `Quick test_extend_basic
        :: Alcotest.test_case "promotion refreshes attributes" `Quick
             test_extend_promotion
        :: Alcotest.test_case "checkpoint/restore invalidates" `Quick
             test_extend_checkpoint_restore
        :: Alcotest.test_case "band exhaustion forces rebuild" `Quick
             test_extend_band_exhaustion
        :: to_alcotest [ prop_extend_equals_rebuild ] );
      ( "eval",
        to_alcotest
          [ prop_indexed_eval_equals_unindexed; prop_indexed_eval_guarded;
            prop_stale_index_ignored ] );
      ( "join",
        to_alcotest [ prop_hash_join_equals_nested_loop; prop_hash_join_empty ] );
      ( "strategy",
        to_alcotest
          [ prop_rewrite_identical_to_replay; prop_rewrite_duplicate_rules ] ) ]
