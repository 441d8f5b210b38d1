(* The failure subsystem end to end: supervised execution over services
   with injected faults (crash, garbage XML, mutation of committed nodes,
   duplicate URIs, stalls) must

   - roll every failed attempt back to a bit-identical arena,
   - record each attempt and outcome in the trace,
   - keep all four inference strategies (Online, Replay, Rewrite, Fused)
     in agreement over the surviving calls, with every link endpoint
     owned by a successful call — in particular, rolled-back calls must
     not poison the Fused backend's source memo or its owned index.

   Deterministic tests pin the acceptance scenario; qcheck properties
   cover random workflows under random fault plans and the rollback
   primitives themselves. *)

open Weblab_xml
open Weblab_workflow
open Weblab_services
open Weblab_prov
open QCheck

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let fingerprint = Weblab_test_support.Append_oracle.arena_fingerprint

let graph_links g =
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

let appender name =
  Service.inproc ~name ~description:"" (fun doc ->
      ignore (Tree.new_element doc ~parent:(Tree.root doc) "F"))

let skip_policy = { Orchestrator.default_policy with on_failure = `Skip }

(* ---------- the acceptance scenario ---------- *)

(* Standard pipeline with an always-failing service after each of the
   first three calls: crash (partial appends left behind), garbage XML
   (unparsable output) and an append violation (mutation of a committed
   node). *)
let degraded_workflow ?(seed = 11) () =
  let doc = Workload.make_document ~units:2 ~seed () in
  let good = Workload.standard_pipeline () in
  let rb = rulebook_of good in
  let services =
    match good with
    | g1 :: g2 :: g3 :: rest ->
      [ g1; Faulty.with_fault Crash (appender "BadCrash");
        g2; Faulty.with_fault Garbage_xml (appender "BadGarbage");
        g3; Faulty.with_fault Mutate_committed (appender "BadMutate") ]
      @ rest
    | _ -> assert false
  in
  (doc, services, rb)

let test_acceptance () =
  let doc, services, rb = degraded_workflow () in
  (* Completes despite the three planted faults. *)
  let exec, g_online = Engine.run_with_strategy ~policy:skip_policy `Online doc services rb in
  let trace = exec.Engine.trace in
  let failed = Trace.failed_calls trace in
  Alcotest.(check (list (pair string int)))
    "the three planted faults failed, at the interleaved timestamps"
    [ ("BadCrash", 2); ("BadGarbage", 4); ("BadMutate", 6) ]
    (List.map (fun (c : Trace.call) -> (c.Trace.service, c.Trace.time)) failed);
  (* Each failure is visible as a recorded attempt with a reason... *)
  List.iter
    (fun (c : Trace.call) ->
      let atts =
        List.filter (fun a -> a.Trace.a_time = c.Trace.time) (Trace.attempts trace)
      in
      check_bool (Printf.sprintf "attempts recorded for t=%d" c.Trace.time) true
        (atts <> []);
      List.iter
        (fun a ->
          check_bool "attempt marked failed" false a.Trace.a_ok;
          check_bool "attempt carries a reason" true (a.Trace.a_reason <> ""))
        atts;
      (* ...and as a Failed outcome. *)
      match Trace.outcome_at trace c.Trace.time with
      | Some (Trace.Failed _) -> ()
      | _ -> Alcotest.fail "failed call without a Failed outcome")
    failed;
  (* Failed calls burn their timestamps: committed calls skip 2, 4, 6. *)
  let committed = List.map (fun c -> c.Trace.time) (Trace.calls trace) in
  List.iter
    (fun t -> check_bool "burned timestamp not committed" false (List.mem t committed))
    [ 2; 4; 6 ];
  check_bool "surviving calls committed" true
    (List.mem 1 committed && List.mem 3 committed && List.mem 5 committed);
  (* All three strategies agree on a non-empty link set... *)
  let g_replay = Engine.provenance ~strategy:`Replay exec rb in
  let g_rewrite = Engine.provenance ~strategy:`Rewrite exec rb in
  let links = graph_links g_replay in
  check_bool "non-empty link set" true (links <> []);
  Alcotest.(check (list (triple string string string)))
    "online = replay" links (graph_links g_online);
  Alcotest.(check (list (triple string string string)))
    "replay = rewrite" links (graph_links g_rewrite);
  (* ...and every endpoint belongs to a successful call. *)
  let failed_times = List.map (fun c -> c.Trace.time) failed in
  List.iter
    (fun (f, t, _) ->
      List.iter
        (fun uri ->
          match Trace.call_of_resource trace uri with
          | Some c ->
            check_bool
              (Printf.sprintf "%s owned by a successful call" uri)
              false
              (List.mem c.Trace.time failed_times)
          | None -> Alcotest.fail (uri ^ " has no owning call"))
        [ f; t ])
    links

let test_rollback_bit_identical () =
  (* A workflow run alongside always-failing services ends in exactly the
     arena the clean workflow produces: failed calls leave no trace in the
     document (they only burn timestamps, which the committed call never
     sees). *)
  let run services =
    let doc = Workload.make_document ~units:2 ~seed:7 () in
    ignore (Orchestrator.execute ~policy:skip_policy doc services);
    fingerprint doc
  in
  let clean = run [ appender "Good" ] in
  let degraded =
    run
      [ appender "Good";
        Faulty.with_fault Crash (appender "B1");
        Faulty.with_fault Mutate_committed (appender "B2");
        Faulty.with_fault Duplicate_uri (appender "B3");
        Faulty.with_fault Garbage_xml (appender "B4") ]
  in
  check_string "bit-identical to the last successful commit" clean degraded

let test_retry_commits () =
  let doc = Workload.make_document ~units:1 ~seed:3 () in
  let svc = Faulty.failing_first 2 Crash (appender "Flaky") in
  let policy =
    { Orchestrator.default_policy with retries = 3; backoff_ms = 10. }
  in
  let trace = Orchestrator.execute ~policy doc [ svc ] in
  (match Trace.outcome_at trace 1 with
   | Some (Trace.Retried 2) -> ()
   | _ -> Alcotest.fail "expected Retried 2");
  check_bool "no failed calls" true (Trace.failed_calls trace = []);
  check_bool "the call committed" true
    (List.exists (fun (c : Trace.call) -> c.Trace.time = 1) (Trace.calls trace));
  let atts = List.filter (fun a -> a.Trace.a_time = 1) (Trace.attempts trace) in
  check_int "three attempts" 3 (List.length atts);
  Alcotest.(check (list (pair bool (float 1e-9))))
    "per-attempt outcome and exponential simulated backoff"
    [ (false, 0.); (false, 10.); (true, 20.) ]
    (List.map (fun a -> (a.Trace.a_ok, a.Trace.a_backoff_ms)) atts)

let test_retries_exhausted () =
  let doc = Workload.make_document ~units:1 ~seed:3 () in
  let svc = Faulty.failing_first 5 Crash (appender "Hopeless") in
  let policy = { skip_policy with retries = 2 } in
  let trace = Orchestrator.execute ~policy doc [ svc ] in
  (match Trace.outcome_at trace 1 with
   | Some (Trace.Failed _) -> ()
   | _ -> Alcotest.fail "expected Failed");
  check_int "1 + retries attempts" 3
    (List.length (List.filter (fun a -> a.Trace.a_time = 1) (Trace.attempts trace)))

let test_propagate_default_rolls_back () =
  (* The historical behavior: the exception escapes — but only after the
     rollback, so the caller holds the last good state, not a torn one. *)
  let run services =
    let doc = Workload.make_document ~units:1 ~seed:5 () in
    (try ignore (Orchestrator.execute doc services)
     with Failure _ -> ());
    fingerprint doc
  in
  let doc = Workload.make_document ~units:1 ~seed:5 () in
  Alcotest.check_raises "exception propagates by default"
    (Failure "injected crash in Bad") (fun () ->
      ignore
        (Orchestrator.execute doc [ Faulty.with_fault Crash (appender "Bad") ]));
  check_string "partial appends rolled back before propagating"
    (run []) (run [ Faulty.with_fault Crash (appender "Bad") ])

let test_node_budget () =
  let svc =
    Service.inproc ~name:"Big" ~description:"" (fun doc ->
        for _ = 1 to 5 do
          ignore (Tree.new_element doc ~parent:(Tree.root doc) "F")
        done)
  in
  let policy = { skip_policy with max_new_nodes = Some 2 } in
  let doc = Workload.make_document ~units:1 ~seed:2 () in
  let trace = Orchestrator.execute ~policy doc [ svc ] in
  match Trace.outcome_at trace 1 with
  | Some (Trace.Failed r) ->
    check_bool "reason names the budget" true (contains ~sub:"budget" r)
  | _ -> Alcotest.fail "expected the output-size budget to trip"

let test_time_budget () =
  let policy = { skip_policy with max_call_s = Some 0.005 } in
  let doc = Workload.make_document ~units:1 ~seed:2 () in
  let svc = Faulty.with_fault ~stall_s:0.05 Stall (appender "Slow") in
  let trace = Orchestrator.execute ~policy doc [ svc ] in
  match Trace.outcome_at trace 1 with
  | Some (Trace.Failed r) ->
    check_bool "reason names the budget" true (contains ~sub:"budget" r)
  | _ -> Alcotest.fail "expected the time budget to trip"

let test_duplicate_uri_fault () =
  let run services =
    let doc = Workload.make_document ~units:1 ~seed:9 () in
    let trace = Orchestrator.execute ~policy:skip_policy doc services in
    (fingerprint doc, trace)
  in
  let clean, _ = run [] in
  let degraded, trace = run [ Faulty.with_fault Duplicate_uri (appender "Dup") ] in
  (match Trace.outcome_at trace 1 with
   | Some (Trace.Failed r) ->
     check_bool "reason names the duplicate" true (contains ~sub:"duplicate" r)
   | _ -> Alcotest.fail "expected the duplicate URI to be rejected");
  check_string "document unchanged" clean degraded

let test_failure_stats () =
  let doc, services, rb = degraded_workflow () in
  let exec, _ = Engine.run_with_strategy ~policy:skip_policy `Online doc services rb in
  let s = Analytics.failure_stats exec.Engine.trace in
  check_int "total = committed + failed" s.Analytics.calls_total
    (s.Analytics.calls_committed + s.Analytics.calls_failed);
  check_int "three failures" 3 s.Analytics.calls_failed;
  check_int "no retried calls (retries = 0)" 0 s.Analytics.calls_retried;
  check_bool "at least one attempt per call" true
    (s.Analytics.attempts_total >= s.Analytics.calls_total);
  check_bool "failures attributed per service" true
    (List.mem_assoc "BadCrash" s.Analytics.failures_by_service);
  check_bool "renders" true
    (contains ~sub:"failed" (Analytics.failure_stats_to_string s))

let test_prov_export_failed_activities () =
  let doc, services, rb = degraded_workflow () in
  let exec, g = Engine.run_with_strategy ~policy:skip_policy `Online doc services rb in
  let ttl = Engine.to_turtle ~trace:exec.Engine.trace g in
  check_bool "failed activity exported" true (contains ~sub:"BadCrash" ttl);
  check_bool "invalidation timestamp exported" true
    (contains ~sub:"invalidatedAtTime" ttl);
  check_bool "failure reason exported" true (contains ~sub:"failureReason" ttl);
  (* without the trace the export stays as before: successful calls only *)
  let plain = Engine.to_turtle g in
  check_bool "no failed activities without the trace" false
    (contains ~sub:"invalidatedAtTime" plain)

(* ---------- generators (as in test_props) ---------- *)

let gen_name = Gen.oneofl [ "A"; "B"; "C"; "D"; "E" ]
let gen_attr_name = Gen.oneofl [ "k"; "v"; "g"; "src" ]
let gen_attr_value = Gen.oneofl [ "1"; "2"; "3"; "x"; "y" ]

let rec gen_fragment doc parent depth st =
  let name = gen_name st in
  let attrs =
    List.init (Gen.int_bound 2 st) (fun _ -> (gen_attr_name st, gen_attr_value st))
    |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)
  in
  let n = Tree.new_element doc ~parent name ~attrs in
  if Gen.bool st then ignore (Tree.new_text doc ~parent:n "txt");
  if depth > 0 then
    for _ = 1 to Gen.int_bound 2 st do
      ignore (gen_fragment doc n (depth - 1) st)
    done;
  n

let gen_doc : Tree.t Gen.t =
 fun st ->
  let doc = Orchestrator.initial_document () in
  for _ = 1 to 1 + Gen.int_bound 2 st do
    ignore (gen_fragment doc (Tree.root doc) 2 st)
  done;
  doc

let arb_doc = make ~print:(fun d -> Printer.to_string ~indent:true d) gen_doc

let gen_service i : Service.t Gen.t =
 fun st ->
  let seeds = List.init (1 + Gen.int_bound 1 st) (fun _ -> Gen.int_bound 1_000_000 st) in
  Service.inproc ~name:(Printf.sprintf "Svc%d" i) ~description:"" (fun doc ->
      List.iter
        (fun seed ->
          ignore (gen_fragment doc (Tree.root doc) 1 (Random.State.make [| seed |])))
        seeds)

let gen_rule : Rule.t Gen.t =
 fun st ->
  let open Weblab_xpath.Ast in
  let shared = Gen.bool st in
  let a1 = gen_attr_name st and a2 = gen_attr_name st in
  let step name preds = { axis = Descendant; test = Name name; preds } in
  Rule.make ~name:"q"
    ~source:[ step (gen_name st) (if shared then [ Bind ("x", Attr a1) ] else []) ]
    ~target:[ step (gen_name st) (if shared then [ Bind ("x", Attr a2) ] else []) ]
    ()

let gen_workflow : (Tree.t * Service.t list * Strategy.rulebook) Gen.t =
 fun st ->
  let doc = gen_doc st in
  let services = List.init (2 + Gen.int_bound 3 st) (fun i -> gen_service (i + 1) st) in
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

(* ---------- properties ---------- *)

(* Stall is excluded: without a time budget it only burns CPU. *)
let plan_faults =
  [ Faulty.Crash; Faulty.Garbage_xml; Faulty.Mutate_committed;
    Faulty.Duplicate_uri ]

(* Bit-identity is checked before agreement: every attempt must start
   from the arena the last commit left, or the run stops writing.  A
   rollback that kept a failed attempt's writes would otherwise let the
   retry allocate over stale attribute heads, and reading the cyclic
   chains that makes exhausts memory instead of failing the property.
   Each wrapped service takes the arena's fingerprint as an
   attempt begins: the first attempt after a commit records it, every
   later one (a retry, or the next call after a failed one) compares,
   and on a difference raises before the fault or the service runs. *)
exception Rollback_not_exact

let guard_rollbacks services =
  let baseline = ref None and broken = ref false in
  let guard (svc : Service.t) =
    match svc.Service.impl with
    | Service.Inproc f ->
      { svc with
        Service.impl =
          Service.Inproc
            (fun d ->
              let fp = fingerprint d in
              (match !baseline with
               | None -> baseline := Some fp
               | Some b when String.equal b fp -> ()
               | Some _ ->
                 broken := true;
                 raise Rollback_not_exact);
              f d) }
    | Service.Blackbox _ | Service.Blackbox_doc _ -> svc
  in
  (List.map guard services, (fun () -> baseline := None), broken)

let prop_agreement_under_faults =
  Test.make
    ~name:"Online = Replay = Rewrite = Fused under faults"
    ~count:60
    (pair arb_workflow (make Gen.(pair (int_bound 1_000_000) (int_bound 2))))
    (fun ((doc, services, rb), (seed, r)) ->
      let rate = [| 0.3; 0.5; 0.8 |].(r) in
      let plan = Faulty.plan ~faults:plan_faults ~rate ~seed () in
      let services, committed, broken =
        guard_rollbacks (Faulty.wrap_all plan services)
      in
      let policy =
        { Orchestrator.default_policy with
          retries = 1; backoff_ms = 5.; on_failure = `Skip }
      in
      (* The execution-time backends observe the same single run: the
         fault plan is consumed by the execution, so equivalence must be
         checked on shared state, not on a re-run.  Rolled-back attempts
         are never observed and must leave the Fused backend's source
         memo and owned index sound.  The generated rules' sources are
         append-stable, so their links come from the memo. *)
      let on_st = Strategy_online.init ~doc rb in
      let fus_st = Strategy_fused.init ~doc rb in
      let trace =
        Orchestrator.execute ~policy
          ~on_step:(fun call before after delta ->
            committed ();
            Strategy_online.observe on_st ~call ~before ~after ~delta;
            Strategy_fused.observe fus_st ~call ~before ~after ~delta)
          doc services
      in
      if !broken then
        Test.fail_report "a failed attempt's rollback was not bit-identical";
      let g_online = Strategy_online.finalize on_st ~doc ~trace in
      let g_fused = Strategy_fused.finalize fus_st ~doc ~trace in
      let exec = { Engine.doc; trace } in
      let g_replay = Engine.provenance ~strategy:`Replay exec rb in
      let g_rewrite = Engine.provenance ~strategy:`Rewrite exec rb in
      let failed_times =
        List.map (fun (c : Trace.call) -> c.Trace.time) (Trace.failed_calls trace)
      in
      let owned_by_survivor uri =
        match Trace.call_of_resource trace uri with
        | Some c -> not (List.mem c.Trace.time failed_times)
        | None -> false
      in
      graph_links g_online = graph_links g_replay
      && graph_links g_replay = graph_links g_rewrite
      && graph_links g_rewrite = graph_links g_fused
      && List.for_all
           (fun (f, t, _) -> owned_by_survivor f && owned_by_survivor t)
           (graph_links g_replay))

(* λ has one home: whatever the backend, the graph's labels are the
   trace's entries, one per resource of the final document. *)
let prop_graph_labels_are_the_trace =
  Test.make ~name:"graph labels = trace entries (all backends, faults)"
    ~count:40
    (pair arb_workflow (make Gen.(int_bound 1_000_000)))
    (fun ((doc, services, rb), seed) ->
      let plan = Faulty.plan ~faults:plan_faults ~rate:0.5 ~seed () in
      let policy =
        { Orchestrator.default_policy with retries = 1; on_failure = `Skip }
      in
      let on_st = Strategy_online.init ~doc rb in
      let fus_st = Strategy_fused.init ~doc rb in
      let trace =
        Orchestrator.execute ~policy
          ~on_step:(fun call before after delta ->
            Strategy_online.observe on_st ~call ~before ~after ~delta;
            Strategy_fused.observe fus_st ~call ~before ~after ~delta)
          doc (Faulty.wrap_all plan services)
      in
      let exec = { Engine.doc; trace } in
      let graphs =
        [ Strategy_online.finalize on_st ~doc ~trace;
          Strategy_fused.finalize fus_st ~doc ~trace;
          Engine.provenance ~strategy:`Replay exec rb;
          Engine.provenance ~strategy:`Rewrite exec rb ]
      in
      let entries = Trace.entries trace in
      let uris = List.map (fun e -> e.Trace.uri) entries in
      let resources =
        List.filter_map (Tree.uri doc) (Tree.resources doc)
      in
      let expected =
        List.map (fun e -> (e.Trace.uri, e.Trace.call)) entries
        |> List.sort (fun (u, (a : Trace.call)) (v, (b : Trace.call)) ->
               compare (a.Trace.time, u) (b.Trace.time, v))
      in
      List.length (List.sort_uniq String.compare uris) = List.length uris
      && List.sort String.compare uris = List.sort String.compare resources
      && List.for_all
           (fun g ->
             Prov_graph.label_count g = Trace.entry_count trace
             && Prov_graph.labeled_resources g = expected
             && List.for_all
                  (fun e -> Prov_graph.label g e.Trace.uri = Some e.Trace.call)
                  entries)
           graphs)

let prop_skip_always_completes =
  Test.make ~name:"Skip policy always completes; arena stays sound" ~count:60
    (pair arb_workflow (make Gen.(int_bound 1_000_000)))
    (fun ((doc, services, _), seed) ->
      let plan = Faulty.plan ~faults:plan_faults ~rate:1.0 ~seed () in
      let trace =
        Orchestrator.execute ~policy:skip_policy doc (Faulty.wrap_all plan services)
      in
      (* rate 1.0, no retries: every call fails, the document is exactly
         the initially-labeled state and URIs are still unique *)
      Orchestrator.check_unique_uris doc;
      List.length (Trace.failed_calls trace) = List.length services
      && Doc_state.timestamps_monotonic doc)

(* Edits of the nodes below [bound] (committed when the checkpoint being
   exercised was taken), plus appends anywhere: every kind of write the
   undo log must record, and the tail it must drop. *)
let random_edit doc st ~bound =
  let element_below () =
    let n = Random.State.int st bound in
    if Tree.is_element doc n then Some n else None
  in
  match Random.State.int st 7 with
  | 0 ->
    let p = Random.State.int st (Tree.size doc) in
    if Tree.is_element doc p then ignore (gen_fragment doc p 1 st)
  | 1 -> Option.iter (fun n -> Tree.set_attr doc n "z" "corrupt") (element_below ())
  | 2 ->
    let n = Random.State.int st bound in
    if Tree.is_text doc n then Tree.set_text doc n "edited"
  | 3 -> Tree.set_created doc (Random.State.int st bound) (Random.State.int st 9)
  | 4 -> Tree.set_uri_time doc (Random.State.int st bound) (Random.State.int st 9)
  | 5 ->
    (* a promotion *)
    Option.iter
      (fun n -> if Tree.uri doc n = None then Tree.set_uri doc n (Tree.fresh_uri doc))
      (element_below ())
  | _ ->
    Option.iter
      (fun n -> Tree.set_uri doc n (Printf.sprintf "dup%d" (Random.State.int st 3)))
      (element_below ())

let prop_checkpoint_restore_exact =
  Test.make ~name:"checkpoint/restore is bit-identical" ~count:100
    (pair arb_doc (make Gen.(int_bound 1_000_000)))
    (fun (doc, seed) ->
      let before = fingerprint doc in
      let gen0 = Tree.generation doc in
      let committed = Tree.size doc in
      let ck = Tree.checkpoint doc in
      let st = Random.State.make [| seed |] in
      let edits ~bound k =
        for _ = 1 to k do
          random_edit doc st ~bound
        done
      in
      edits ~bound:committed (1 + Random.State.int st 5);
      (* A nested checkpoint, restored before the outer one: its undo
         must leave the outer checkpoint's log intact. *)
      let mid = fingerprint doc in
      let inner_size = Tree.size doc in
      let inner = Tree.checkpoint doc in
      edits ~bound:inner_size (1 + Random.State.int st 4);
      Tree.restore doc inner;
      let inner_exact = String.equal (fingerprint doc) mid in
      edits ~bound:committed (Random.State.int st 3);
      Tree.restore doc ck;
      inner_exact && fingerprint doc = before && Tree.generation doc > gen0)

(* The document's URI table against a scan of the arena, over random
   appends with ids (fresh and repeated), promotions, [fresh_uri] claims
   (assigned or left open) and nested checkpoints closed by commit or
   restore.  The model logs who took each URI, newest first, and a
   restore truncates it to the checkpoint's log.  After every operation,
   each URI some node carries resolves to the first node that took it,
   and no other URI (repeated, fresh, claimed or rolled back) resolves. *)
let prop_uri_table_is_a_scan =
  Test.make ~name:"URI table = first carriers of an arena scan" ~count:200
    (make Gen.(int_bound 1_000_000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let doc = Orchestrator.initial_document () in
      let taken = ref [ ("r1", Tree.root doc) ] and claims = ref [] in
      let names = ref [ "r1" ] and fresh = ref 0 and cks = ref [] in
      let name u = names := u :: !names in
      let pick () =
        match Random.State.int st 3 with
        | 0 -> [| "a"; "b"; "r3"; "r6" |].(Random.State.int st 4)
        | 1 -> incr fresh; Printf.sprintf "u%d" !fresh
        | _ -> (match !taken with [] -> "a" | l -> fst (List.nth l (Random.State.int st (List.length l))))
      in
      let random_element () =
        let rec go k =
          let n = Random.State.int st (Tree.size doc) in
          if Tree.is_element doc n || k = 0 then n else go (k - 1)
        in
        let n = go 8 in
        if Tree.is_element doc n then n else Tree.root doc
      in
      let append ?uri () =
        let attrs = match uri with Some u -> [ ("id", u) ] | None -> [] in
        let n = Tree.new_element doc ~parent:(random_element ()) "E" ~attrs in
        if Random.State.bool st then ignore (Tree.new_text doc ~parent:n "x");
        Option.iter (fun u -> name u; taken := (u, n) :: !taken) uri
      in
      let promote u =
        let n = random_element () in
        if Tree.uri doc n = None then begin
          Tree.set_uri doc n u;
          name u;
          taken := (u, n) :: !taken
        end
      in
      let consistent () =
        let carriers = Hashtbl.create 16 in
        for n = 0 to Tree.size doc - 1 do
          Option.iter (fun u -> Hashtbl.add carriers u n) (Tree.uri doc n)
        done;
        let first u =
          List.fold_left
            (fun acc (v, n) -> if String.equal u v then Some n else acc)
            None !taken
        in
        List.for_all
          (fun u ->
            match Hashtbl.find_all carriers u with
            | [] ->
              Tree.find_resource doc u = None
              || Test.fail_reportf "%s is carried by no node, resolves" u
            | ns ->
              (match first u with
               | Some n when List.mem n ns -> Tree.find_resource doc u = Some n
               | _ -> false)
              || Test.fail_reportf "%s: carried by [%s], resolves elsewhere" u
                   (String.concat ";" (List.map string_of_int ns)))
          (List.sort_uniq String.compare (!names @ !claims))
      in
      let ok = ref true in
      for _ = 1 to 40 do
        (match Random.State.int st 8 with
         | 0 | 1 -> append ~uri:(pick ()) ()
         | 2 -> append ()
         | 3 -> promote (pick ())
         | 4 ->
           let u = Tree.fresh_uri doc in
           ok := !ok && Tree.find_resource doc u = None
                 && not (List.mem u !claims);
           claims := u :: !claims;
           (match Random.State.int st 3 with
            | 0 -> append ~uri:u ()
            | 1 -> promote u
            | _ -> ())
         | 5 when List.length !cks < 3 ->
           cks := (Tree.checkpoint doc, !taken, !claims) :: !cks
         | _ -> (
           match !cks with
           | (ck, t, c) :: rest ->
             cks := rest;
             if Random.State.bool st then Tree.commit doc ck
             else begin
               Tree.restore doc ck;
               taken := t;
               claims := c
             end
           | [] -> ()));
        ok := !ok && consistent ()
      done;
      (* Committing the outermost checkpoint closes the inner ones. *)
      (match List.rev !cks with
       | (ck, _, _) :: _ -> Tree.commit doc ck
       | [] -> ());
      !ok && consistent ())

(* The rollback bookkeeping of a step costs what the step wrote, not
   what the arena holds: on a 32k-node arena, a checkpoint, three edits
   of committed nodes, the append check's [changed_since] and a restore
   allocate a few hundred words (a column-copying checkpoint: ~160k). *)
let test_rollback_allocation () =
  let doc = Orchestrator.initial_document () in
  let root = Tree.root doc in
  while Tree.size doc < 32_768 do
    let e = Tree.new_element doc ~parent:root "U" in
    ignore (Tree.new_text doc ~parent:e "u")
  done;
  let txt = Tree.size doc - 1 in
  let elt = txt - 1 in
  let before = fingerprint doc in
  let words () = Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words in
  let w0 = words () in
  let ck = Tree.checkpoint doc in
  Tree.set_text doc txt "U";
  Tree.set_created doc elt 7;
  Tree.set_uri_time doc elt 7;
  let changed = Tree.changed_since doc ck in
  Tree.restore doc ck;
  let w = words () -. w0 in
  Alcotest.(check (list int)) "the edited nodes" [ elt; txt ] changed;
  check_string "restored" before (fingerprint doc);
  check_bool (Printf.sprintf "%.0f words allocated, under 1k" w) true (w < 1000.)

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "faults"
    [ ( "acceptance",
        [ Alcotest.test_case "degraded workflow end to end" `Quick test_acceptance;
          Alcotest.test_case "rollback bit-identical" `Quick
            test_rollback_bit_identical;
          Alcotest.test_case "retry then commit" `Quick test_retry_commits;
          Alcotest.test_case "retries exhausted" `Quick test_retries_exhausted;
          Alcotest.test_case "propagate (default) rolls back" `Quick
            test_propagate_default_rolls_back;
          Alcotest.test_case "rollback allocation is O(writes)" `Quick
            test_rollback_allocation ] );
      ( "budgets",
        [ Alcotest.test_case "output-size budget" `Quick test_node_budget;
          Alcotest.test_case "time budget" `Quick test_time_budget;
          Alcotest.test_case "duplicate URI fault" `Quick test_duplicate_uri_fault ] );
      ( "reporting",
        [ Alcotest.test_case "failure statistics" `Quick test_failure_stats;
          Alcotest.test_case "PROV export of failures" `Quick
            test_prov_export_failed_activities ] );
      ( "properties",
        to_alcotest
          [ prop_agreement_under_faults; prop_graph_labels_are_the_trace;
            prop_skip_always_completes;
            prop_checkpoint_restore_exact; prop_uri_table_is_a_scan ] ) ]
