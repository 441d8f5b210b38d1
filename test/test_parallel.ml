(* The multicore inference layer: the domain pool itself (ordering,
   exception propagation, batch reuse, the jobs = 1 sequential path),
   concurrent fresh-URI allocation, and the determinism contract — for
   every strategy, any [jobs] value must produce a provenance graph
   bit-identical to the sequential run: same link set AND same
   serialized PROV, including under injected faults. *)

open Weblab_xml
open Weblab_workflow
open Weblab_services
open Weblab_prov
open QCheck

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let link_list g =
  Prov_graph.links g
  |> List.filter (fun l -> not l.Prov_graph.inherited)
  |> List.map (fun l ->
         (l.Prov_graph.from_uri, l.Prov_graph.to_uri, l.Prov_graph.rule))
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

(* ---------- the domain pool ---------- *)

let test_pool_map_order () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let r = Pool.map pool 100 (fun i -> i * i) in
          check_int
            (Printf.sprintf "jobs=%d: 100 results" jobs)
            100 (Array.length r);
          Array.iteri
            (fun i v ->
              check_int (Printf.sprintf "jobs=%d: slot %d" jobs i) (i * i) v)
            r))
    [ 1; 2; 4; 7 ]

let test_pool_empty_and_tiny () =
  Pool.with_pool ~jobs:4 (fun pool ->
      check_int "empty batch" 0 (Array.length (Pool.map pool 0 (fun i -> i)));
      (* fewer items than workers: some deques start empty *)
      check links_testable "n < jobs" []
        (Array.to_list (Pool.map pool 2 (fun _ -> [])) |> List.concat);
      check_int "single item" 41 (Pool.map pool 1 (fun _ -> 41)).(0))

let test_pool_reuse () =
  (* One pool, many batches: workers park between batches and wake for
     the next one — the execution-time backends run one batch per call. *)
  let pool = Pool.create ~jobs:3 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      for batch = 1 to 20 do
        let n = 1 + ((batch * 13) mod 37) in
        let r = Pool.map pool n (fun i -> (batch * 1000) + i) in
        check_int (Printf.sprintf "batch %d size" batch) n (Array.length r);
        Array.iteri
          (fun i v ->
            check_int (Printf.sprintf "batch %d slot %d" batch i)
              ((batch * 1000) + i) v)
          r
      done)

let test_pool_exception () =
  (* A raising item must re-raise in the caller — and the pool must
     survive it: the batch drains and the next batch still works. *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          (try
             ignore (Pool.map pool 50 (fun i -> if i = 17 then failwith "boom" else i));
             Alcotest.failf "jobs=%d: expected an exception" jobs
           with Failure msg ->
             check Alcotest.string
               (Printf.sprintf "jobs=%d: exception propagated" jobs)
               "boom" msg);
          let r = Pool.map pool 10 (fun i -> i + 1) in
          check_int (Printf.sprintf "jobs=%d: pool usable after error" jobs)
            10 r.(9)))
    [ 1; 4 ]

let test_pool_clamp () =
  Pool.with_pool ~jobs:0 (fun pool ->
      check_int "jobs < 1 clamps to 1" 1 (Pool.jobs pool));
  Pool.with_pool ~jobs:5 (fun pool ->
      check_int "jobs preserved" 5 (Pool.jobs pool))

(* Without [~jobs] every pool, and so every backend, is as wide as
   [JOBS] says: sequential when it is unset. *)
let test_pool_default () =
  Pool.with_pool (fun pool ->
      check_int "default width = configured_jobs" (Pool.configured_jobs ())
        (Pool.jobs pool))

(* ---------- concurrent fresh-URI allocation ---------- *)

let test_fresh_uri_concurrent () =
  (* Several domains race on one document's URI table: every URI handed
     out must be distinct (the probe-claim sequence is atomic under the
     document's URI lock). *)
  let doc = Orchestrator.initial_document () in
  let domains = 4 and per = 64 in
  let uris =
    Array.init domains (fun _ ->
        Domain.spawn (fun () ->
            List.init per (fun _ -> Tree.fresh_uri doc)))
    |> Array.to_list
    |> List.concat_map Domain.join
  in
  check_int "every concurrent fresh URI is distinct" (domains * per)
    (List.length (List.sort_uniq compare uris))

(* ---------- determinism: parallel = sequential, bit for bit ---------- *)

let plan_faults =
  [ Faulty.Crash; Faulty.Garbage_xml; Faulty.Mutate_committed;
    Faulty.Duplicate_uri ]

let skip_policy =
  { Orchestrator.default_policy with
    retries = 1; backoff_ms = 1.; on_failure = `Skip }

(* Executions mutate the document, so each run rebuilds the workload
   from its seed; [Faulty.plan] is deterministic in (seed, service,
   attempt), so the faulty variants replay identically too. *)
let workload ~seed ~faulty =
  let doc = Workload.make_document ~units:2 ~seed () in
  let services = Workload.standard_pipeline ~extended:true () in
  let rb = rulebook_of services in
  let services =
    if faulty then
      Faulty.wrap_all (Faulty.plan ~faults:plan_faults ~rate:0.4 ~seed ()) services
    else services
  in
  (doc, services, rb)

let run_strategy kind ~jobs ~seed ~faulty =
  let doc, services, rb = workload ~seed ~faulty in
  let exec, g =
    Engine.run_with_strategy ~policy:skip_policy ~jobs kind doc services rb
  in
  (link_list g, Engine.to_turtle ~trace:exec.Engine.trace g)

(* Every registered backend — a new one is covered automatically. *)
let all_kinds : Strategy.kind list = Strategy.all

let test_parallel_identical_deterministic () =
  (* Pinned smoke version of the property: every strategy, jobs=4 vs
     jobs=1, clean and faulty. *)
  List.iter
    (fun faulty ->
      List.iter
        (fun kind ->
          let l1, s1 = run_strategy kind ~jobs:1 ~seed:11 ~faulty in
          let l4, s4 = run_strategy kind ~jobs:4 ~seed:11 ~faulty in
          let tag =
            Printf.sprintf "%s%s" (Strategy.kind_to_string kind)
              (if faulty then " (faulty)" else "")
          in
          check links_testable (tag ^ ": links jobs=4 = jobs=1") l1 l4;
          check Alcotest.string (tag ^ ": turtle jobs=4 = jobs=1") s1 s4;
          check_bool (tag ^ ": non-trivial graph") true (l1 <> []))
        all_kinds)
    [ false; true ]

let prop_parallel_deterministic =
  Test.make
    ~name:"jobs=1 and random jobs in [2..8] produce bit-identical provenance"
    ~count:25
    (make
       ~print:(fun (seed, jobs, faulty) ->
         Printf.sprintf "seed=%d jobs=%d faulty=%b" seed jobs faulty)
       Gen.(triple (int_bound 1_000_000) (int_range 2 8) bool))
    (fun (seed, jobs, faulty) ->
      List.for_all
        (fun kind ->
          let l1, s1 = run_strategy kind ~jobs:1 ~seed ~faulty in
          let ln, sn = run_strategy kind ~jobs ~seed ~faulty in
          l1 = ln && s1 = sn)
        all_kinds)

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "parallel"
    [ ( "pool",
        [ Alcotest.test_case "map preserves item order" `Quick test_pool_map_order;
          Alcotest.test_case "empty and tiny batches" `Quick test_pool_empty_and_tiny;
          Alcotest.test_case "batch reuse" `Quick test_pool_reuse;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "jobs clamping" `Quick test_pool_clamp;
          Alcotest.test_case "default width" `Quick test_pool_default ] );
      ( "uri-alloc",
        [ Alcotest.test_case "concurrent fresh URIs distinct" `Quick
            test_fresh_uri_concurrent ] );
      ( "determinism",
        [ Alcotest.test_case "all strategies, jobs=4 = jobs=1" `Quick
            test_parallel_identical_deterministic ] );
      ( "properties", to_alcotest [ prop_parallel_deterministic ] ) ]
