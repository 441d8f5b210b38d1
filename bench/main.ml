(* Benchmark harness (Bechamel): one Test per experiment row of
   DESIGN.md §3.

   The paper has no quantitative evaluation — §6 defers the performance
   study to future work — so rows F1-E9 time the regeneration of the
   paper's artifacts, and rows P1-P6 are the deferred study: evaluation
   strategies, scaling in document size and rule count, the Example 9
   optimizer, and the substrates.  EXPERIMENTS.md records the measured
   numbers next to what the paper reports (shapes, not absolutes). *)

open Bechamel
open Toolkit
open Weblab_xml
open Weblab_workflow
open Weblab_services
open Weblab_prov
open Weblab_test_support

(* ---------- configuration (CLI / env) ----------

   The CI smoke job runs [--quick] (or WEBLAB_BENCH_QUICK=1): one size per
   scaling series and a tiny Bechamel quota — enough to prove every
   benchmark still runs, useless for numbers.  [--json PATH] (or
   WEBLAB_BENCH_JSON) dumps the estimates for the artifact upload. *)

let quick =
  ref
    (match Sys.getenv_opt "WEBLAB_BENCH_QUICK" with
    | Some ("" | "0") | None -> false
    | Some _ -> true)

let json_path = ref (Sys.getenv_opt "WEBLAB_BENCH_JSON")

(* [--only SUBSTR] (or WEBLAB_BENCH_ONLY) keeps only the tests whose name
   contains the substring — how CI uploads a dedicated fault/* artifact
   without paying for the full suite twice. *)
let only = ref (Sys.getenv_opt "WEBLAB_BENCH_ONLY")

(* The jobs axis of the par/* series; [--jobs N] narrows it to {1, N}. *)
let par_jobs = ref [ 1; 2; 4; 8 ]

(* [--parallel-report PATH] runs the wall-clock parallel speedup study
   (P14) instead of the Bechamel suite and writes the machine-readable
   BENCH_parallel.json artifact. *)
let parallel_report = ref None

(* [--ingest-report PATH] runs the wall-clock streaming-ingest study
   instead of the Bechamel suite and writes the BENCH_ingest.json
   artifact: throughput (MB/s) layer by layer over a synthetic
   repository document (JSON decode -> tokenize -> parse into the arena
   -> parse+index), and bytes-per-node of the structure-of-arrays
   arena against a field-for-field replica of the previous boxed-record
   arena built from the same document. *)
let ingest_report = ref None

(* [--rdf-report PATH] runs the columnar-vs-oracle triple store study
   instead of the Bechamel suite and writes the BENCH_rdf.json artifact:
   bytes/triple of both representations over an identical triple load,
   bound-pattern probe and count throughput, and cross-checks (find
   agreement on every sampled pattern, byte-identical Turtle).  Exits
   nonzero on any disagreement. *)
let rdf_report = ref None

(* [--obs-guard] runs the disabled-recorder overhead check (P15) instead
   of the Bechamel suite: fails the process if the estimated cost of the
   Off-level telemetry call sites exceeds 2% of the smoke workload. *)
let obs_guard = ref false

(* [--fused-counters] runs the multi-rule workload under the Counters
   level once per execution-time backend and prints the pattern-eval
   counter attribution (P16): how many pattern evaluations each backend
   pays per committed call, and what the fused pass's prefix sharing
   saves. *)
let fused_counters = ref false

let () =
  let usage unknown =
    Printf.eprintf
      "usage: %s [--quick] [--json PATH] [--only SUBSTR] [--jobs N] \
       [--parallel-report PATH] [--ingest-report PATH] \
       [--rdf-report PATH] [--obs-guard] [--fused-counters]  (unknown arg %s)\n"
      Sys.argv.(0) unknown;
    exit 2
  in
  let rec scan = function
    | "--quick" :: rest ->
      quick := true;
      scan rest
    | "--json" :: path :: rest ->
      json_path := Some path;
      scan rest
    | "--only" :: sub :: rest ->
      only := Some sub;
      scan rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
       | Some n when n > 1 -> par_jobs := [ 1; n ]
       | Some 1 -> par_jobs := [ 1 ]
       | Some _ | None -> usage n);
      scan rest
    | "--parallel-report" :: path :: rest ->
      parallel_report := Some path;
      scan rest
    | "--ingest-report" :: path :: rest ->
      ingest_report := Some path;
      scan rest
    | "--rdf-report" :: path :: rest ->
      rdf_report := Some path;
      scan rest
    | "--obs-guard" :: rest ->
      obs_guard := true;
      scan rest
    | "--fused-counters" :: rest ->
      fused_counters := true;
      scan rest
    | arg :: _ -> usage arg
    | [] -> ()
  in
  scan (List.tl (Array.to_list Sys.argv))

let name_contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

(* Full scaling series, or just the smallest point in quick mode. *)
let pick full = if !quick then [ List.hd full ] else full

let rulebook services =
  List.filter_map
    (fun svc ->
      Catalog.find (Service.name svc)
      |> Option.map (fun e ->
             (Service.name svc, List.map Rule_parser.parse e.Catalog.rules)))
    services

(* A prepared workload: a finished execution plus its rulebook. *)
type prepared = {
  exec : Engine.execution;
  rb : Strategy.rulebook;
  services : Service.t list;
  units : int;
  seed : int;
}

let prepare ?(units = 3) ?(seed = 42) ?(calls = 7) () =
  let doc = Workload.make_document ~units ~seed () in
  let services = Workload.chain_pipeline calls in
  let rb = rulebook services in
  let exec = Engine.run doc services in
  { exec; rb; services; units; seed }

(* ---------- P14: parallel speedup report (BENCH_parallel.json) ----------

   Wall-clock, not Bechamel: a parallel run burns CPU time on every
   domain, so per-run CPU estimates would hide the speedup entirely.
   Each (series, jobs) point is the best of [reps] runs; speedup is
   measured against the jobs=1 point of the same series.  This mode runs
   *instead of* the Bechamel suite and exits. *)

let run_parallel_report path =
  let units, calls, reps = if !quick then (4, 4, 1) else (24, 16, 3) in
  let p = prepare ~units ~calls () in
  let wall f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let series =
    [ ( "par/rewrite-large",
        fun jobs ->
          ignore (Engine.provenance ~strategy:`Rewrite ~jobs p.exec p.rb) );
      ( "par/replay-large",
        fun jobs ->
          ignore (Engine.provenance ~strategy:`Replay ~jobs p.exec p.rb) ) ]
  in
  let rows =
    List.concat_map
      (fun (name, f) ->
        let base = wall (fun () -> f 1) in
        List.map
          (fun jobs ->
            let w = if jobs = 1 then base else wall (fun () -> f jobs) in
            (name, jobs, w, base /. w))
          !par_jobs)
      series
  in
  let oc = open_out path in
  output_string oc "[\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i (name, jobs, w, s) ->
      Printf.fprintf oc
        "  {\"series\": %S, \"jobs\": %d, \"wall_s\": %.6f, \
         \"speedup_vs_jobs1\": %.3f}%s\n"
        name jobs w s
        (if i = last then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "Parallel speedup (units=%d, calls=%d, best of %d):\n" units
    calls reps;
  List.iter
    (fun (name, jobs, w, s) ->
      Printf.printf "  %-20s jobs=%d  %8.2f ms  x%.2f\n" name jobs (w *. 1000.)
        s)
    rows;
  Printf.printf "Wrote %d datapoints to %s\n" (List.length rows) path

(* ---------- P18: streaming ingest study (--ingest-report) ----------

   Wall-clock throughput of the one-pass pipeline (bytes -> events ->
   arena [-> index]) over a synthetic repository document, plus a memory
   comparison: bytes-per-node of the live structure-of-arrays arena
   against a field-for-field replica of the boxed-record arena this
   refactor replaced (one cell record, a 16-slot children Vec and its
   own copies of every string per node — what the old parser
   materialized).  Both sides are measured with [Obj.reachable_words]
   over the same document, so the ratio is an apples-to-apples heap
   census, not an estimate. *)

module Record_arena = struct
  type kind =
    | Element of string
    | Text of string

  type cell = {
    mutable kind : kind;
    mutable attrs : (string * string) list;
    mutable parent : int;
    children : int Vec.t;
    mutable created : int;
    mutable uri_time : int;
  }
  [@@warning "-69"]

  type t = {
    cells : cell Vec.t;
    mutable root : int;
  }
  [@@warning "-69"]

  (* Fresh copies, as the old parser produced: each start tag and each
     attribute allocated its own string, shared with nothing. *)
  let copy_string s = String.init (String.length s) (String.get s)

  let of_tree doc =
    let dummy =
      { kind = Text ""; attrs = []; parent = -1;
        children = Vec.create ~dummy:(-1); created = 0; uri_time = 0 }
    in
    let t = { cells = Vec.create ~dummy; root = -1 } in
    for n = 0 to Tree.size doc - 1 do
      let kind =
        if Tree.is_element doc n then Element (copy_string (Tree.name doc n))
        else Text (copy_string (Tree.text doc n))
      in
      let attrs =
        List.map
          (fun (k, v) -> (copy_string k, copy_string v))
          (Tree.attrs doc n)
      in
      let children = Vec.create ~dummy:(-1) in
      Tree.iter_children doc n (fun c -> Vec.push children c);
      Vec.push t.cells
        { kind; attrs; parent = Tree.parent doc n; children;
          created = Tree.created doc n; uri_time = Tree.uri_time doc n }
    done;
    if Tree.has_root doc then t.root <- Tree.root doc;
    t
end

(* A WebLab-shaped repository: repetitive element/attribute vocabulary
   (what interning exploits), unique identifiers and per-unit text (what
   it cannot). *)
let synth_repository_xml items =
  let buf = Buffer.create (items * 160) in
  Buffer.add_string buf "<Repository>";
  for i = 1 to items do
    Printf.bprintf buf
      "<TextMediaUnit id=\"mu%d\" s=\"Crawler\" t=\"%d\">\
       <Content lang=\"fr\">unit %d body &amp; annotations</Content>\
       <Annotation src=\"Normaliser\" t=\"%d\"><Language>french</Language>\
       </Annotation></TextMediaUnit>"
      i (1 + (i mod 9)) i (2 + (i mod 9))
  done;
  Buffer.add_string buf "</Repository>";
  Buffer.contents buf

(* State [units] of an xml-ingest-shaped session: a labelled root and
   [units] media units of one text sentence each, the first [labelled]
   carrying the labels the daemon gave them when they were committed. *)
let xml_ingest_state ~units ~labelled =
  let buf = Buffer.create (units * 200) in
  Buffer.add_string buf "<Resource id=\"r1\" s=\"Source\" t=\"0\">";
  for u = 0 to units - 1 do
    if u < labelled then
      Printf.bprintf buf "<MediaUnit id=\"u%d\" s=\"ClientXml\" t=\"%d\">" u
        ((u / 48) + 1)
    else Printf.bprintf buf "<MediaUnit id=\"u%d\">" u;
    Printf.bprintf buf
      "<NativeContent>unit %d: provenance of a fragment &amp; its lineage \
       through the workflow, recorded by the service that appended it.\
       </NativeContent></MediaUnit>"
      u
  done;
  Buffer.add_string buf "</Resource>";
  Buffer.contents buf

(* Each timed run starts from a compacted heap, with the previous run's
   result already dropped, so no run pays for another's garbage. *)
let best_of_runs k f =
  let best = ref infinity and result = ref None in
  for _ = 1 to k do
    result := None;
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (!best, Option.get !result)

let reachable_bytes v = Obj.reachable_words (Obj.repr v) * (Sys.word_size / 8)

let run_ingest_report path =
  let items = if !quick then 5_000 else 50_000 in
  let xml = synth_repository_xml items in
  let mb = float_of_int (String.length xml) /. (1024. *. 1024.) in
  let runs = if !quick then 3 else 5 in
  (* The layers below the arena, each over the same document and each
     reported in MB of XML per second: decoding it as a commit request's
     [xml] member, then tokenizing it with no event handler attached. *)
  let module J = Weblab_server.Json in
  let request =
    J.to_string (J.Obj [ ("verb", J.Str "commit"); ("xml", J.Str xml) ])
  in
  let t_json, decoded = best_of_runs runs (fun () -> J.parse request) in
  let t_tokenize, () =
    best_of_runs runs (fun () ->
        let st = Xml_parser.create ~on_event:ignore () in
        Xml_parser.feed_string st xml;
        Xml_parser.finish st)
  in
  let t_parse, doc = best_of_runs runs (fun () -> fst (Ingest.of_string xml)) in
  (* Parse, then a separate full index build over the finished tree: the
     one way the library builds a document's index. *)
  let t_both, (doc_i, idx) =
    best_of_runs runs (fun () ->
        let d = fst (Ingest.of_string xml) in
        (d, Index.build d))
  in
  let errors = ref 0 in
  if J.str_member "xml" decoded <> Some xml then incr errors;
  if not (Index.valid_for idx doc_i) then incr errors;
  (* Chunked feed must agree with the whole-string parse byte for byte. *)
  let chunked =
    let t = Ingest.create () in
    let len = String.length xml in
    let chunk = 64 * 1024 in
    let pos = ref 0 in
    while !pos < len do
      let k = min chunk (len - !pos) in
      Ingest.feed_string t (String.sub xml !pos k);
      pos := !pos + k
    done;
    Ingest.finish t
  in
  if not (String.equal (Printer.to_string chunked) (Printer.to_string doc))
  then incr errors;
  (* Grafting, as the daemon commits a client state: state k+1 of an
     xml-ingest-shaped session (48 units a step) matched event by event
     against an arena holding state k, each run on its own copy of that
     arena.  The oracle's parse/diff/copy must append as many nodes:
     three per unit. *)
  let step_units = 48 in
  let k = if !quick then 4 else 16 in
  let state_k =
    xml_ingest_state ~units:(k * step_units) ~labelled:(k * step_units)
  in
  let next =
    xml_ingest_state ~units:((k + 1) * step_units) ~labelled:(k * step_units)
  in
  let arenas = Array.init runs (fun _ -> fst (Ingest.of_string state_k)) in
  let used = ref 0 in
  let t_graft, grafted =
    best_of_runs runs (fun () ->
        let d = arenas.(!used) in
        incr used;
        ignore (Diff.graft ~doc:d (Xml_text.of_string next));
        d)
  in
  let oracle = fst (Ingest.of_string state_k) in
  (match Weblab_test_support.Oracle_graft.graft oracle next with
   | Ok (added, _)
     when List.length added = 3 * step_units
          && Tree.size oracle = Tree.size grafted ->
     ()
   | _ -> incr errors);
  let graft_mb = float_of_int (String.length next) /. (1024. *. 1024.) in
  let nodes = Tree.size doc in
  Gc.compact ();
  let soa_per_node = float_of_int (reachable_bytes doc) /. float_of_int nodes in
  let record = Record_arena.of_tree doc in
  Gc.compact ();
  let record_per_node =
    float_of_int (reachable_bytes record) /. float_of_int nodes
  in
  let ratio = record_per_node /. soa_per_node in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"series\": \"ingest/streaming\", \"bytes\": %d, \"nodes\": %d,\n\
    \ \"json_decode_mb_s\": %.2f, \"tokenize_mb_s\": %.2f,\n\
    \ \"parse_mb_s\": %.2f, \"parse_index_mb_s\": %.2f, \"graft_mb_s\": %.2f,\n\
    \ \"bytes_per_node_soa\": %.1f, \"bytes_per_node_record\": %.1f, \
     \"bytes_per_node_ratio\": %.3f,\n\
    \ \"errors\": %d}\n"
    (String.length xml) nodes (mb /. t_json) (mb /. t_tokenize) (mb /. t_parse)
    (mb /. t_both) (graft_mb /. t_graft) soa_per_node record_per_node ratio
    !errors;
  close_out oc;
  Printf.printf
    "ingest: %.1f MB, %d nodes\n\
    \  json decode %.1f MB/s; tokenize %.1f MB/s\n\
    \  parse %.1f MB/s; parse+index %.1f MB/s\n\
    \  graft %.1f MB/s (%.2f ms for a %.0f KB state)\n\
    \  bytes/node: SoA %.1f, record arena %.1f  (ratio %.2fx)\n\
     Wrote %s\n"
    mb nodes (mb /. t_json) (mb /. t_tokenize) (mb /. t_parse) (mb /. t_both)
    (graft_mb /. t_graft) (t_graft *. 1000.) (graft_mb *. 1024.)
    soa_per_node record_per_node ratio path;
  if !errors > 0 then begin
    Printf.eprintf "ingest bench FAILED: %d errors\n" !errors;
    exit 1
  end

(* ---------- P19: columnar triple store report (BENCH_rdf.json) ----------

   The same synthetic triple load (PROV-shaped term reuse: few
   predicates, zipf-ish subject sharing, mixed IRI/literal objects) goes
   into the columnar store and the boxed oracle; the artifact reports
   bytes/triple of each and the throughput of a fixed bound-pattern
   probe set — (s,p,?), (?,p,o), (s,?,?) and fully-bound (s,p,o), each
   as [count] then [find], which is exactly what the BGP planner issues
   (selectivity estimate, then scan) and what ingest dedup probes.
   Predicate-only (?,p,?) scans are timed separately and reported
   ungated: they enumerate an eighth of the store per probe, and the
   oracle's per-term posting lists of shared tuples are the optimal
   layout for that — the columnar store pays one decode per result and
   lands within ~2x, in exchange for the bytes/triple ratio and every
   bound-probe win.  Every sampled pattern's [find]/[count] and the full
   Turtle/N-Triples exports are cross-checked between the stores; any
   disagreement fails the run. *)

let run_rdf_report path =
  let module R = Weblab_rdf in
  let n = if !quick then 10_000 else 60_000 in
  let runs = if !quick then 3 else 5 in
  let rng = Random.State.make [| 0x5eed; 97 |] in
  let n_subj = max 1 (n / 8) in
  let preds =
    Array.init 8 (fun i ->
        R.Term.iri (Printf.sprintf "http://weblab.example/prov#p%d" i))
  in
  let subj i = R.Term.iri (Printf.sprintf "http://weblab.example/resource/%d" i) in
  let triples =
    Array.init n (fun _ ->
        let s = subj (Random.State.int rng n_subj) in
        let p = preds.(Random.State.int rng (Array.length preds)) in
        let o =
          if Random.State.bool rng then subj (Random.State.int rng n_subj)
          else R.Term.lit (Printf.sprintf "value-%d" (Random.State.int rng (max 1 (n / 4))))
        in
        (s, p, o))
  in
  let fill_columnar () =
    let st = R.Triple_store.create () in
    Array.iter (fun tr -> R.Triple_store.add st tr) triples;
    st
  in
  let fill_oracle () =
    let st = Oracle_store.create () in
    Array.iter (fun tr -> Oracle_store.add st tr) triples;
    st
  in
  let t_add_c, cst = best_of_runs runs fill_columnar in
  let t_add_o, ost = best_of_runs runs fill_oracle in
  let live = R.Triple_store.size cst in
  R.Triple_store.compact cst;
  Gc.compact ();
  let bpt_c = float_of_int (reachable_bytes cst) /. float_of_int live in
  let bpt_o = float_of_int (reachable_bytes ost) /. float_of_int live in
  (* A fixed probe set sampled from the loaded triples: each pattern
     runs [count] then [find] (summing counts and result sizes so
     nothing is optimized away), repeated [reps] times per round. *)
  let n_pats = if !quick then 512 else 2048 in
  let reps = 4 in
  let pats =
    Array.init n_pats (fun i ->
        let s, p, o = triples.(Random.State.int rng n) in
        match i mod 4 with
        | 0 -> (Some s, Some p, None)
        | 1 -> (None, Some p, Some o)
        | 2 -> (Some s, None, None)
        | _ -> (Some s, Some p, Some o))
    |> Array.to_list
  in
  let scans =
    List.init (Array.length preds) (fun i -> (None, Some preds.(i), None))
  in
  let probe count find pats () =
    let acc = ref 0 in
    for _ = 1 to reps do
      List.iter
        (fun pat -> acc := !acc + count pat + List.length (find pat))
        pats
    done;
    !acc
  in
  let probe_c = probe (R.Triple_store.count cst) (R.Triple_store.find cst) in
  let probe_o = probe (Oracle_store.count ost) (Oracle_store.find ost) in
  let t_probe_c, hits_c = best_of_runs runs (probe_c pats) in
  let t_probe_o, hits_o = best_of_runs runs (probe_o pats) in
  let t_scan_c, scan_c = best_of_runs runs (probe_c scans) in
  let t_scan_o, scan_o = best_of_runs runs (probe_o scans) in
  let errors = ref 0 in
  if hits_c <> hits_o || scan_c <> scan_o then incr errors;
  (* Cross-checks: every sampled pattern agrees triple-for-triple, and
     the serialized exports are byte-identical. *)
  List.iter
    (fun pat ->
      if R.Triple_store.find cst pat <> Oracle_store.find ost pat then
        incr errors;
      if R.Triple_store.count cst pat <> Oracle_store.count ost pat then
        incr errors)
    (pats @ scans);
  if
    not
      (String.equal
         (R.Turtle.to_turtle cst)
         (Oracle_turtle.to_turtle ost))
  then incr errors;
  if
    not
      (String.equal (R.Turtle.to_ntriples cst) (Oracle_turtle.to_ntriples ost))
  then incr errors;
  (* Write scaling: µs per add of distinct synthetic triples into stores
     of 4k and of 262k triples.  Each timed round adds 262k triples
     either way (64 stores of 4k, or one of 262k) from a freshly
     collected heap, so both sizes see the same allocation volume; best
     of [runs] rounds.  A store whose merges cost O(n) each every fixed
     number of adds grows quadratically and shows it here. *)
  let total = 262_144 in
  let us_per_triple size =
    let distinct =
      Array.init size (fun i ->
          ( R.Term.iri
              (Printf.sprintf "http://weblab.example/resource/%d" (i lsr 3)),
            preds.(i land 7),
            R.Term.lit (Printf.sprintf "value-%d" i) ))
    in
    let best = ref infinity in
    for _ = 1 to runs do
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      for _ = 1 to total / size do
        let st = R.Triple_store.create () in
        Array.iter (R.Triple_store.add st) distinct
      done;
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best *. 1e6 /. float_of_int total
  in
  let us_4k = us_per_triple 4096 and us_262k = us_per_triple total in
  let stats = R.Triple_store.stats cst in
  let bpt_ratio = bpt_o /. bpt_c in
  let probe_speedup = t_probe_o /. t_probe_c in
  let scan_speedup = t_scan_o /. t_scan_c in
  let add_speedup = t_add_o /. t_add_c in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"series\": \"rdf/columnar\", \"triples\": %d, \"terms\": %d, \
     \"merges\": %d,\n\
    \ \"bytes_per_triple_columnar\": %.1f, \"bytes_per_triple_oracle\": \
     %.1f, \"bytes_per_triple_ratio\": %.3f,\n\
    \ \"probes\": %d, \"probe_s_columnar\": %.6f, \"probe_s_oracle\": %.6f, \
     \"probe_speedup\": %.3f,\n\
    \ \"scan_s_columnar\": %.6f, \"scan_s_oracle\": %.6f, \"scan_speedup\": \
     %.3f,\n\
    \ \"add_s_columnar\": %.6f, \"add_s_oracle\": %.6f, \"add_speedup\": \
     %.3f,\n\
    \ \"add_us_per_triple_4k\": %.3f, \"add_us_per_triple_262k\": %.3f, \
     \"add_us_growth\": %.3f,\n\
    \ \"errors\": %d}\n"
    live stats.R.Triple_store.st_terms stats.R.Triple_store.st_merges bpt_c
    bpt_o bpt_ratio (n_pats * reps) t_probe_c t_probe_o probe_speedup t_scan_c
    t_scan_o scan_speedup t_add_c t_add_o add_speedup us_4k us_262k
    (us_262k /. us_4k) !errors;
  close_out oc;
  Printf.printf
    "rdf: %d triples (%d distinct terms, %d run merges)\n\
    \  bytes/triple: columnar %.1f, oracle %.1f  (ratio %.2fx)\n\
    \  %d bound probes: columnar %.2f ms, oracle %.2f ms  (speedup %.2fx)\n\
    \  %d predicate scans: columnar %.2f ms, oracle %.2f ms  (speedup \
     %.2fx, ungated)\n\
    \  load: columnar %.2f ms, oracle %.2f ms  (speedup %.2fx)\n\
    \  add scaling: %.2f us/triple at 4k, %.2f us/triple at 262k  (%.2fx)\n\
     Wrote %s\n"
    live stats.R.Triple_store.st_terms stats.R.Triple_store.st_merges bpt_c
    bpt_o bpt_ratio (n_pats * reps) (t_probe_c *. 1000.) (t_probe_o *. 1000.)
    probe_speedup
    (List.length scans * reps)
    (t_scan_c *. 1000.) (t_scan_o *. 1000.) scan_speedup (t_add_c *. 1000.)
    (t_add_o *. 1000.) add_speedup us_4k us_262k (us_262k /. us_4k) path;
  if !errors > 0 then begin
    Printf.eprintf "rdf bench FAILED: %d cross-check errors\n" !errors;
    exit 1
  end

(* ---------- P15: recorder overhead guard (--obs-guard) ----------

   A direct disabled-vs-removed A/B is impossible (the call sites are
   compiled in), and a wall-clock A/B against the Counters level drowns
   in CI noise at the 2% scale.  Instead, bound the cost from
   measurables: (a) the per-call cost of each hot-path primitive —
   counter incr, gauge set, histogram observe — from tight micro-loops;
   (b) the number of gated calls the smoke workload makes,
   over-approximated by the counter totals at the Counters level (an
   [add n] counts n times but is one call — the estimate only errs
   upward); (c) the workload's disabled-path wall time.  Three gates,
   all at 2%: the Off bound charges every gated op at the worst
   primitive (the "one atomic load" contract must hold whichever
   primitive sits at a call site); the Counters bound charges the
   workload's ops at the counter-incr cost, since counters are the only
   primitive on the inference hot path — gauges and histograms live at
   serving and merge boundaries; and a serving-path bound charges the
   per-request mix the protocol dispatcher actually pays (one verb
   counter, one histogram observe, two gauge samples) against a 50 us
   request floor — far below the cheapest verb we serve, so real
   requests sit further under the limit. *)
let run_obs_guard () =
  let module T = Weblab_obs.Telemetry in
  let module M = Weblab_obs.Metrics in
  let probe = T.counter "guard.probe" in
  let g = M.gauge "guard.gauge" in
  let h = M.hist "guard.hist" in
  let n = 20_000_000 in
  let measure f =
    let t0 = Unix.gettimeofday () in
    for i = 1 to n do
      f i
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int n
  in
  let worst () =
    let c = measure (fun _ -> T.incr probe) in
    let s = measure (fun i -> M.set g i) in
    (* spread observations over buckets so the CAS-max path stays real *)
    let o = measure (fun i -> M.observe_us h (float_of_int (i land 0xffff))) in
    (max c (max s o), c, s, o)
  in
  T.set_level T.Off;
  let per_off, c0, s0, o0 = worst () in
  T.set_level T.Counters;
  T.reset ();
  let _per_on, c1, s1, o1 = worst () in
  Printf.printf
    "obs guard per-op ns: off incr/set/observe %.2f/%.2f/%.2f, counters \
     %.2f/%.2f/%.2f\n"
    (c0 *. 1e9) (s0 *. 1e9) (o0 *. 1e9) (c1 *. 1e9) (s1 *. 1e9) (o1 *. 1e9);
  let p = prepare ~units:8 ~calls:7 () in
  let infer () = ignore (Engine.provenance ~strategy:`Rewrite p.exec p.rb) in
  T.set_level T.Counters;
  T.reset ();
  infer ();
  let ops = List.fold_left (fun acc (_, v) -> acc + v) 0 (T.counters ()) in
  T.set_level T.Off;
  let wall = ref infinity in
  for _ = 1 to 5 do
    let t0 = Unix.gettimeofday () in
    infer ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !wall then wall := dt
  done;
  let failed = ref false in
  let gate label per_op =
    let overhead = float_of_int ops *. per_op /. !wall in
    Printf.printf
      "obs guard (%s): %d gated ops x %.2f ns = %.1f us, against %.2f ms \
       wall => %.4f%% (limit 2%%)\n"
      label ops (per_op *. 1e9)
      (float_of_int ops *. per_op *. 1e6)
      (!wall *. 1000.) (overhead *. 100.);
    if overhead > 0.02 then begin
      Printf.eprintf "obs guard FAILED: %s recorder overhead %.4f%% > 2%%\n"
        label (overhead *. 100.);
      failed := true
    end
  in
  gate "disabled" per_off;
  gate "counters" c1;
  (* Serving hot path: the dispatcher pays one verb-counter incr, one
     histogram observe, and the session layer two gauge samples per
     request.  Bound that mix against a 50 us request floor — the
     cheapest verb (stats) serves in hundreds of microseconds, so real
     requests sit well under this. *)
  let req_cost = c1 +. o1 +. (2. *. s1) in
  let req_floor = 50e-6 in
  let req_overhead = req_cost /. req_floor in
  Printf.printf
    "obs guard (serving): incr + observe + 2 gauge sets = %.1f ns per \
     request, against a %.0f us request floor => %.4f%% (limit 2%%)\n"
    (req_cost *. 1e9) (req_floor *. 1e6) (req_overhead *. 100.);
  if req_overhead > 0.02 then begin
    Printf.eprintf
      "obs guard FAILED: serving per-request overhead %.4f%% > 2%%\n"
      (req_overhead *. 100.);
    failed := true
  end;
  if !failed then exit 1

(* ---------- P16: pattern-eval counter attribution (--fused-counters) ----------

   Times say the fused backend wins on multi-rule workloads; the
   counters say WHY.  Run the k-copy workload once per execution-time
   backend at the Counters level and report the per-rule amortized
   pattern cost: the interpretive backends pay [eval.patterns]
   rule-at-a-time evaluations (linear in k), the fused backend pays
   [fused.pass.steps] trie-node evaluations per shared pass — constant
   in k, because the k copies CSE onto one expression set. *)
let run_fused_counters () =
  let module T = Weblab_obs.Telemetry in
  let services = Workload.chain_pipeline 7 in
  let base_rb = rulebook services in
  let scale k =
    List.map
      (fun (svc, rules) ->
        ( svc,
          List.concat_map
            (fun r ->
              List.init k (fun i ->
                  Rule.make
                    ~name:(Printf.sprintf "%s#%d" (Rule.name r) i)
                    ~source:(Rule.source r) ~target:(Rule.target r) ()))
            rules ))
      base_rb
  in
  let get name = Option.value ~default:0 (List.assoc_opt name (T.counters ())) in
  Printf.printf
    "%-12s %4s %14s %12s %12s %12s %12s\n"
    "backend" "k" "rules" "eval.patterns" "pass.steps" "steps.shared"
    "steps.scan";
  List.iter
    (fun k ->
      let rb = scale k in
      let nrules =
        List.fold_left (fun acc (_, rs) -> acc + List.length rs) 0 rb
      in
      List.iter
        (fun kind ->
          let doc = Workload.make_document ~units:3 ~seed:42 () in
          T.set_level T.Counters;
          T.reset ();
          ignore (Engine.run_with_strategy kind doc services rb);
          let row =
            ( get "eval.patterns" + get "eval.patterns.fused",
              get "fused.pass.steps",
              get "fused.pass.steps.shared",
              get "eval.steps.scan" )
          in
          T.set_level T.Off;
          let p, ps, sh, sc = row in
          Printf.printf "%-12s %4d %14d %12d %12d %12d %12d\n"
            (Strategy.kind_to_string kind)
            k nrules p ps sh sc)
        [ `Online; `Fused ])
    [ 1; 4; 16 ]

let () =
  if !fused_counters then begin
    run_fused_counters ();
    exit 0
  end

let () =
  if !obs_guard then begin
    run_obs_guard ();
    exit 0
  end

let () =
  match !parallel_report with
  | Some path ->
    run_parallel_report path;
    exit 0
  | None -> ()

let () =
  match !ingest_report with
  | Some path ->
    run_ingest_report path;
    exit 0
  | None -> ()

let () =
  match !rdf_report with
  | Some path ->
    run_rdf_report path;
    exit 0
  | None -> ()

(* ---------- F/E: paper artifact regeneration ---------- *)

let test_paper_figures =
  Test.make ~name:"paper/figures(F1-E9)"
    (Staged.stage (fun () ->
         let e = Weblab_scenario.Paper.run () in
         let artifacts = Weblab_scenario.Figures.all e in
         assert (List.length artifacts = 9)))

(* ---------- P1: strategy comparison over workflow length ---------- *)

let strategy_tests =
  List.concat_map
    (fun calls ->
      let p = prepare ~calls () in
      let fresh_online () =
        (* Online re-executes: it cannot be separated from the run. *)
        let doc = Workload.make_document ~units:p.units ~seed:p.seed () in
        ignore (Engine.run_with_strategy `Online doc p.services p.rb)
      in
      [ Test.make
          ~name:(Printf.sprintf "strategy/replay/calls=%02d" calls)
          (Staged.stage (fun () ->
               ignore (Engine.provenance ~strategy:`Replay p.exec p.rb)));
        Test.make
          ~name:(Printf.sprintf "strategy/rewrite/calls=%02d" calls)
          (Staged.stage (fun () ->
               ignore (Engine.provenance ~strategy:`Rewrite p.exec p.rb)));
        Test.make
          ~name:(Printf.sprintf "strategy/online+exec/calls=%02d" calls)
          (Staged.stage fresh_online);
        Test.make
          ~name:(Printf.sprintf "strategy/exec-only/calls=%02d" calls)
          (Staged.stage (fun () ->
               let doc = Workload.make_document ~units:p.units ~seed:p.seed () in
               ignore (Engine.run doc p.services)))
      ])
    (pick [ 4; 8; 16; 32; 64 ])

(* ---------- P2: document-size scaling (fixed pipeline) ---------- *)

let doc_scaling_tests =
  List.map
    (fun units ->
      let p = prepare ~units ~calls:7 () in
      Test.make
        ~name:(Printf.sprintf "scale_doc/rewrite/units=%03d" units)
        (Staged.stage (fun () ->
             ignore (Engine.provenance ~strategy:`Rewrite p.exec p.rb))))
    (pick [ 2; 8; 32 ])

(* ---------- P3: rule-set scaling ---------- *)

let rule_scaling_tests =
  let p = prepare ~calls:7 () in
  List.map
    (fun k ->
      (* k distinct copies of every rule. *)
      let rb =
        List.map
          (fun (svc, rules) ->
            ( svc,
              List.concat_map
                (fun r ->
                  List.init k (fun i ->
                      Rule.make
                        ~name:(Printf.sprintf "%s#%d" (Rule.name r) i)
                        ~source:(Rule.source r) ~target:(Rule.target r) ()))
                rules ))
          p.rb
      in
      Test.make
        ~name:(Printf.sprintf "scale_rules/rewrite/x%02d" k)
        (Staged.stage (fun () ->
             ignore (Engine.provenance ~strategy:`Rewrite p.exec rb))))
    (pick [ 1; 4; 16 ])

(* ---------- P4: the Example 9 optimizer at scale, on the test-support
   FLWOR evaluator ---------- *)

let xquery_tests =
  (* A document with many TextMediaUnits so the id join matters. *)
  let p = prepare ~units:24 ~calls:2 () in
  let doc = p.exec.Engine.doc in
  let source = Weblab_xpath.Parser.pattern "//TextMediaUnit[$x := @id]/TextContent" in
  let target =
    Weblab_xpath.Parser.pattern "//TextMediaUnit[$x := @id]/Annotation[Language]"
  in
  let naive =
    Weblab_xquery.Xq_compile.compile_rule_query source target
      ~service:"LanguageExtractor" ~time:2
  in
  let merged = Weblab_xquery.Xq_optimize.merge_key_joins naive in
  [ Test.make ~name:"xquery_opt/naive"
      (Staged.stage (fun () -> ignore (Xq_eval.run doc naive)));
    Test.make ~name:"xquery_opt/key_merge"
      (Staged.stage (fun () -> ignore (Xq_eval.run doc merged)))
  ]

(* ---------- P5: RDF substrate ---------- *)

let rdf_tests =
  let p = prepare ~units:8 ~calls:7 () in
  let g = Engine.provenance ~strategy:`Rewrite p.exec p.rb in
  let store = Prov_export.to_store g in
  let all = Weblab_rdf.Triple_store.triples store in
  let oracle = Oracle_store.create () in
  List.iter (fun tr -> Oracle_store.add oracle tr) all;
  (* Bound-pattern probe set: one (s,p,?) per distinct subject. *)
  let probes =
    List.sort_uniq compare (List.map (fun (s, p, _) -> (Some s, Some p, None)) all)
  in
  [ Test.make ~name:"rdf/export_store"
      (Staged.stage (fun () -> ignore (Prov_export.to_store g)));
    Test.make ~name:"rdf/turtle"
      (Staged.stage (fun () -> ignore (Weblab_rdf.Turtle.to_turtle store)));
    Test.make ~name:"rdf/load_columnar"
      (Staged.stage (fun () ->
           let st = Weblab_rdf.Triple_store.create () in
           List.iter (fun tr -> Weblab_rdf.Triple_store.add st tr) all));
    Test.make ~name:"rdf/load_oracle"
      (Staged.stage (fun () ->
           let st = Oracle_store.create () in
           List.iter (fun tr -> Oracle_store.add st tr) all));
    Test.make ~name:"rdf/probe_columnar"
      (Staged.stage (fun () ->
           List.iter
             (fun pat -> ignore (Weblab_rdf.Triple_store.find store pat))
             probes));
    Test.make ~name:"rdf/probe_oracle"
      (Staged.stage (fun () ->
           List.iter
             (fun pat -> ignore (Oracle_store.find oracle pat))
             probes));
    Test.make ~name:"rdf/sparql_bgp"
      (Staged.stage (fun () ->
           ignore
             (Weblab_rdf.Sparql.run store
                "SELECT ?b ?a WHERE { ?b prov:wasDerivedFrom ?a . \
                 ?b prov:wasGeneratedBy ?act }")))
  ]

(* ---------- P6: XML substrate micro-benchmarks ---------- *)

let xml_tests =
  let p = prepare ~units:16 ~calls:7 () in
  let doc = p.exec.Engine.doc in
  let index = Index.build doc in
  let xml = Printer.to_string doc in
  let old_doc = Xml_parser.parse xml in
  let bigger = Xml_parser.parse xml in
  ignore
    (Tree.new_element bigger ~parent:(Tree.root bigger) "Extra"
       ~attrs:[ ("id", "zz") ]);
  [ Test.make ~name:"xml/parse"
      (Staged.stage (fun () -> ignore (Xml_parser.parse xml)));
    Test.make ~name:"xml/serialize"
      (Staged.stage (fun () -> ignore (Printer.to_string doc)));
    Test.make ~name:"xml/diff"
      (Staged.stage (fun () -> ignore (Diff.diff ~old_doc ~new_doc:bigger)));
    Test.make ~name:"xml/xpath_embeddings"
      (Staged.stage (fun () ->
           ignore
             (Weblab_xpath.Eval.eval ~index doc
                (Weblab_xpath.Parser.pattern
                   "//TextMediaUnit[$x := @id]/Annotation[Language]"))))
  ]

(* ---------- P18: streaming ingest micro-benchmarks ---------- *)

let ingest_tests =
  let xml = synth_repository_xml (if !quick then 500 else 5_000) in
  [ Test.make ~name:"ingest/parse"
      (Staged.stage (fun () -> ignore (Ingest.of_string xml)));
    Test.make ~name:"ingest/two-pass"
      (Staged.stage (fun () -> ignore (Index.build (Xml_parser.parse xml))));
    Test.make ~name:"ingest/chunked-4k"
      (Staged.stage (fun () ->
           let t = Ingest.create () in
           let len = String.length xml in
           let pos = ref 0 in
           while !pos < len do
             let k = min 4096 (len - !pos) in
             Ingest.feed_string t (String.sub xml !pos k);
             pos := !pos + k
           done;
           ignore (Ingest.finish t)))
  ]

(* ---------- P7: reachability queries — BFS vs materialized closure ---------- *)

let reachability_tests =
  let p = prepare ~units:16 ~calls:7 () in
  let g = Engine.provenance ~strategy:`Rewrite p.exec p.rb in
  let g = Inheritance.close p.exec.Engine.doc g in
  let uris = List.map fst (Prov_graph.labeled_resources g) in
  let idx = Reachability.build g in
  [ Test.make ~name:"reach/index_build"
      (Staged.stage (fun () -> ignore (Reachability.build g)));
    Test.make ~name:"reach/bfs_all_pairs"
      (Staged.stage (fun () ->
           List.iter (fun u -> ignore (Query.depends_on_transitive g u)) uris));
    Test.make ~name:"reach/index_all_pairs"
      (Staged.stage (fun () ->
           List.iter (fun u -> ignore (Reachability.ancestors idx u)) uris))
  ]

(* ---------- P8: view projection and channel-aware inference ---------- *)

let extension_tests =
  let p = prepare ~units:8 ~calls:7 () in
  let g = Engine.provenance ~strategy:`Rewrite p.exec p.rb in
  let view =
    Views.by_services
      [ ("Preparation", [ "Normaliser"; "LanguageExtractor"; "Translator" ]);
        ("Analytics",
         [ "Tokenizer"; "EntityExtractor"; "Summarizer"; "SentimentAnalyzer" ]) ]
  in
  let par_wf =
    Weblab_workflow.Parallel.(
      Seq
        [ Par
            [ Call Weblab_services.Media.ocr_service;
              Call Weblab_services.Media.asr_service;
              Call Weblab_services.Normaliser.service ];
          Call Weblab_services.Language_extractor.service ])
  in
  let par_rb =
    rulebook
      [ Weblab_services.Media.ocr_service; Weblab_services.Media.asr_service;
        Weblab_services.Normaliser.service;
        Weblab_services.Language_extractor.service ]
  in
  [ Test.make ~name:"ext/view_projection"
      (Staged.stage (fun () -> ignore (Views.project g view)));
    Test.make ~name:"ext/parallel_run+infer"
      (Staged.stage (fun () ->
           let doc =
             Workload.make_document ~units:2 ~images:1 ~audios:1 ~seed:5 ()
           in
           ignore (Engine.run_parallel ~strategy:`Rewrite doc par_wf par_rb)));
    Test.make ~name:"ext/prov_xml_export"
      (Staged.stage (fun () -> ignore (Prov_export.to_prov_xml g)));
    Test.make ~name:"ext/trace_xml_roundtrip"
      (Staged.stage (fun () ->
           ignore (Trace_io.of_xml (Trace_io.to_xml p.exec.Engine.trace))))
  ]

(* ---------- P9: inherited-closure / storage analytics ---------- *)

let analytics_tests =
  let p = prepare ~units:8 ~calls:7 () in
  let g_explicit = Engine.provenance ~strategy:`Rewrite p.exec p.rb in
  [ Test.make ~name:"analytics/inherit_closure"
      (Staged.stage (fun () ->
           let copy = Prov_export.of_store (Prov_export.to_store g_explicit) in
           ignore (Inheritance.close p.exec.Engine.doc copy)));
    Test.make ~name:"analytics/metrics"
      (Staged.stage (fun () -> ignore (Analytics.metrics g_explicit)));
    Test.make ~name:"analytics/replay_plan"
      (Staged.stage (fun () ->
           ignore (Replay_plan.build g_explicit ~sources:[ "mu1" ])))
  ]

(* ---------- P10: indexed vs unindexed pattern evaluation ---------- *)

let index_tests =
  List.concat_map
    (fun units ->
      let p = prepare ~units ~calls:7 () in
      let doc = p.exec.Engine.doc in
      let label_pat = Weblab_xpath.Parser.pattern "//Annotation[Language]" in
      let narrow_pat =
        Weblab_xpath.Parser.pattern
          "//TextMediaUnit[$x := @id]/Annotation[Language]"
      in
      let idx = Index.build doc in
      [ Test.make
          ~name:(Printf.sprintf "index/build/units=%03d" units)
          (Staged.stage (fun () -> ignore (Index.build doc)));
        Test.make
          ~name:(Printf.sprintf "index/eval_naive/units=%03d" units)
          (Staged.stage (fun () ->
               ignore (Weblab_xpath.Eval.eval doc label_pat)));
        Test.make
          ~name:(Printf.sprintf "index/eval_indexed/units=%03d" units)
          (Staged.stage (fun () ->
               ignore (Weblab_xpath.Eval.eval ~index:idx doc label_pat)));
        Test.make
          ~name:(Printf.sprintf "index/bind_naive/units=%03d" units)
          (Staged.stage (fun () ->
               ignore (Weblab_xpath.Eval.eval doc narrow_pat)));
        Test.make
          ~name:(Printf.sprintf "index/bind_indexed/units=%03d" units)
          (Staged.stage (fun () ->
               ignore (Weblab_xpath.Eval.eval ~index:idx doc narrow_pat)))
      ])
    (pick [ 2; 8; 32 ])

(* ---------- P11: hash join vs nested-loop join ---------- *)

let join_tests =
  let open Weblab_relalg in
  List.concat_map
    (fun n ->
      (* Two relations sharing a key column with ~4 rows per key on each
         side, so the join output stays quadratic-in-duplicates but the
         probe is O(1) per row. *)
      let mk other =
        Table.of_rows [ "k"; other ]
          (List.init n (fun i ->
               [| Value.Str (Printf.sprintf "k%d" (i mod (max 1 (n / 4))));
                  Value.Int i |]))
      in
      let a = mk "a" and b = mk "b" in
      [ Test.make
          ~name:(Printf.sprintf "join/nested_loop/rows=%04d" n)
          (Staged.stage (fun () ->
               ignore (Oracle_join.nested_loop_join a b)));
        Test.make
          ~name:(Printf.sprintf "join/hash/rows=%04d" n)
          (Staged.stage (fun () -> ignore (Table.hash_join a b)))
      ])
    (pick [ 32; 128; 512 ])

(* ---------- P12: fault-tolerant orchestration over degraded runs ---------- *)

(* Executions with injected faults (skip-on-failure, one retry) and
   inference over what survived.  Stall is excluded from the bench plan:
   it measures sleeping, not orchestration.  The wrapped services carry
   per-instance attempt counters, so the exec benchmark re-wraps inside
   the staged closure to keep every iteration's fault pattern identical. *)
let fault_tests =
  let bench_faults =
    Faulty.[ Crash; Garbage_xml; Mutate_committed; Duplicate_uri ]
  in
  let policy =
    { Orchestrator.default_policy with
      retries = 1; backoff_ms = 10.; on_failure = `Skip }
  in
  let services = Workload.chain_pipeline 7 in
  let rb = rulebook services in
  List.concat_map
    (fun rate ->
      let tag = int_of_float ((rate *. 100.) +. 0.5) in
      let degraded () =
        let doc = Workload.make_document ~units:3 ~seed:42 () in
        let faulty =
          Faulty.wrap_all
            (Faulty.plan ~faults:bench_faults ~rate ~seed:42 ())
            services
        in
        Engine.run ~policy doc faulty
      in
      let p = degraded () in
      [ Test.make
          ~name:(Printf.sprintf "fault/exec/rate=%02d" tag)
          (Staged.stage (fun () -> ignore (degraded ())));
        Test.make
          ~name:(Printf.sprintf "fault/replay/rate=%02d" tag)
          (Staged.stage (fun () ->
               ignore (Engine.provenance ~strategy:`Replay p rb)));
        Test.make
          ~name:(Printf.sprintf "fault/rewrite/rate=%02d" tag)
          (Staged.stage (fun () ->
               ignore (Engine.provenance ~strategy:`Rewrite p rb)))
      ])
    (pick [ 0.0; 0.2; 0.5 ])

(* ---------- P13: delta-driven incremental inference ---------- *)

(* Execution-time inference as the document grows, against an exec-only
   baseline that isolates the inference overhead: compare (online − exec)
   with (fused − exec) across each series.

   - pipeline-*: the real media-mining chain.  Services process every
     unit, so the per-call delta grows with the corpus too — the honest
     end-to-end comparison.
   - delta1-*: a pipeline of 12 calls that each append exactly ONE node
     joining (by key) against a corpus that scales.  The per-call delta is
     constant, so Online's overhead grows with [units] while Fused's —
     after the first observation builds its source memo — should stay
     flat. *)
let incr_pipeline_tests =
  let services = Workload.chain_pipeline 7 in
  let rb = rulebook services in
  List.concat_map
    (fun units ->
      let run kind () =
        let doc = Workload.make_document ~units ~seed:42 () in
        ignore (Engine.run_with_strategy kind doc services rb)
      in
      [ Test.make
          ~name:(Printf.sprintf "incr/pipeline-exec/units=%03d" units)
          (Staged.stage (fun () ->
               let doc = Workload.make_document ~units ~seed:42 () in
               ignore (Engine.run doc services)));
        Test.make
          ~name:(Printf.sprintf "incr/pipeline-online/units=%03d" units)
          (Staged.stage (run `Online));
        Test.make
          ~name:(Printf.sprintf "incr/pipeline-fused/units=%03d" units)
          (Staged.stage (run `Fused))
      ])
    (pick [ 2; 8; 32; 64 ])

let incr_fixed_delta_tests =
  (* Unique across every bench iteration — URIs only need to be unique
     within one execution, and a monotone counter guarantees that. *)
  let counter = ref 0 in
  let tagger =
    Service.inproc ~name:"DeltaTagger" ~description:"" (fun doc ->
        incr counter;
        ignore
          (Tree.new_element doc ~parent:(Tree.root doc) "DeltaNote"
             ~attrs:[ ("id", Printf.sprintf "dn%d" !counter); ("ref", "mu1") ]))
  in
  let services = List.init 12 (fun _ -> tagger) in
  let rb =
    [ ( "DeltaTagger",
        [ Rule_parser.parse "//MediaUnit[$x := @id] ==> //DeltaNote[$x := @ref]" ]
      ) ]
  in
  List.concat_map
    (fun units ->
      let run kind () =
        let doc = Workload.make_document ~units ~seed:42 () in
        ignore (Engine.run_with_strategy kind doc services rb)
      in
      [ Test.make
          ~name:(Printf.sprintf "incr/delta1-exec/units=%03d" units)
          (Staged.stage (fun () ->
               let doc = Workload.make_document ~units ~seed:42 () in
               ignore (Engine.run doc services)));
        Test.make
          ~name:(Printf.sprintf "incr/delta1-online/units=%03d" units)
          (Staged.stage (run `Online));
        Test.make
          ~name:(Printf.sprintf "incr/delta1-fused/units=%03d" units)
          (Staged.stage (run `Fused))
      ])
    (pick [ 2; 8; 32; 64 ])

let incr_tests = incr_pipeline_tests @ incr_fixed_delta_tests

(* ---------- P16: the fused rule-set compiler ---------- *)

(* Execution-time inference with k distinct copies of every rule
   (the scale_rules idiom).  The interpretive backends evaluate each
   rule's patterns rule-at-a-time, so their pattern cost grows linearly
   in k; the Fused backend's shared pass evaluates every distinct
   pattern step once per call — the k copies CSE onto one expression
   set — so only the join/emission work scales.  Compare the two
   execution-time backends point by point; the per-rule amortized cost
   discussion is EXPERIMENTS P16. *)
let fused_tests =
  let services = Workload.chain_pipeline 7 in
  let base_rb = rulebook services in
  List.concat_map
    (fun k ->
      let rb =
        List.map
          (fun (svc, rules) ->
            ( svc,
              List.concat_map
                (fun r ->
                  List.init k (fun i ->
                      Rule.make
                        ~name:(Printf.sprintf "%s#%d" (Rule.name r) i)
                        ~source:(Rule.source r) ~target:(Rule.target r) ()))
                rules ))
          base_rb
      in
      let run kind () =
        let doc = Workload.make_document ~units:3 ~seed:42 () in
        ignore (Engine.run_with_strategy kind doc services rb)
      in
      [ Test.make
          ~name:(Printf.sprintf "fused/online/x%02d" k)
          (Staged.stage (run `Online));
        Test.make
          ~name:(Printf.sprintf "fused/fused/x%02d" k)
          (Staged.stage (run `Fused))
      ])
    (pick [ 1; 4; 16 ])

(* ---------- P14: multicore post-hoc inference ---------- *)

(* The Bechamel twin of the wall-clock report: the same workload, timed
   with the monotonic clock per jobs value.  Useful for tracking the
   sequential cost of the parallel code path (jobs=1 vs the pre-pool
   strategy/* series). *)
let parallel_tests =
  let p =
    if !quick then prepare ~units:4 ~calls:4 ()
    else prepare ~units:24 ~calls:16 ()
  in
  List.concat_map
    (fun jobs ->
      [ Test.make
          ~name:(Printf.sprintf "par/rewrite-large/jobs=%d" jobs)
          (Staged.stage (fun () ->
               ignore (Engine.provenance ~strategy:`Rewrite ~jobs p.exec p.rb)));
        Test.make
          ~name:(Printf.sprintf "par/replay-large/jobs=%d" jobs)
          (Staged.stage (fun () ->
               ignore (Engine.provenance ~strategy:`Replay ~jobs p.exec p.rb)))
      ])
    (if !quick then [ 1; 2 ] else !par_jobs)

(* ---------- P15: recorder overhead (disabled / counters / full) ---------- *)

(* The same inference workload under the three recorder levels.  Each
   closure sets its level on entry and restores Off on exit so the rest
   of the suite stays uninstrumented; obs/full also resets the recorder
   per run, which bounds the event buffers AND charges the run for the
   buffer management it causes. *)
let obs_tests =
  let module T = Weblab_obs.Telemetry in
  let p = prepare ~units:8 ~calls:7 () in
  let infer () = ignore (Engine.provenance ~strategy:`Rewrite p.exec p.rb) in
  let at level f () =
    T.set_level level;
    Fun.protect ~finally:(fun () -> T.set_level T.Off) f
  in
  let module M = Weblab_obs.Metrics in
  let g = M.gauge "bench.gauge" in
  let h = M.hist "bench.hist" in
  let tick = ref 0 in
  [ Test.make ~name:"obs/disabled" (Staged.stage (at T.Off infer));
    Test.make ~name:"obs/counters" (Staged.stage (at T.Counters infer));
    Test.make ~name:"obs/full"
      (Staged.stage
         (at T.Full (fun () ->
              T.reset ();
              infer ())));
    (* Metric-primitive micro-costs at the Counters level: one gauge
       store, one histogram record (bucketed add + CAS max), one full
       registry snapshot over whatever families the run has touched. *)
    Test.make ~name:"obs/gauge_set"
      (Staged.stage
         (at T.Counters (fun () ->
              incr tick;
              M.set g !tick)));
    Test.make ~name:"obs/hist_record"
      (Staged.stage
         (at T.Counters (fun () ->
              incr tick;
              M.observe_us h (float_of_int (!tick land 0xffff)))));
    Test.make ~name:"obs/hist_snapshot"
      (Staged.stage (at T.Counters (fun () -> ignore (M.snapshot ()))))
  ]

(* ---------- P17: serving protocol (in-process, no TCP) ---------- *)

(* One whole session lifecycle (open, a three-call pipeline with a
   query after each commit, close) through [Protocol.handle_line] — verb
   dispatch, JSON codec and session machinery without socket noise.
   Session ids are fresh per run and closed at the end, so the registry
   stays flat. *)
let serve_tests =
  let module P = Weblab_server.Protocol in
  let module J = Weblab_server.Json in
  let ctx = P.make_ctx ~max_sessions:64 () in
  let n = ref 0 in
  let line obj = ignore (P.handle_line ctx (J.to_string obj)) in
  [ Test.make ~name:"serve/session(open+3commit+3query+close)"
      (Staged.stage (fun () ->
           incr n;
           let sid = Printf.sprintf "bm-%d" !n in
           line
             (J.Obj
                [ ("verb", J.Str "open"); ("session", J.Str sid);
                  ("units", J.Int 2); ("seed", J.Int 7) ]);
           List.iter
             (fun svc ->
               line
                 (J.Obj
                    [ ("verb", J.Str "commit"); ("session", J.Str sid);
                      ("service", J.Str svc) ]);
               line
                 (J.Obj
                    [ ("verb", J.Str "query"); ("session", J.Str sid);
                      ("kind", J.Str "why"); ("uri", J.Str "mu1") ]))
             [ "Normaliser"; "LanguageExtractor"; "Translator" ];
           line (J.Obj [ ("verb", J.Str "close"); ("session", J.Str sid) ])))
  ]

(* ---------- harness ---------- *)

let all_tests =
  [ test_paper_figures ] @ strategy_tests @ doc_scaling_tests
  @ rule_scaling_tests @ xquery_tests @ rdf_tests @ xml_tests @ ingest_tests
  @ reachability_tests @ extension_tests @ analytics_tests @ index_tests
  @ join_tests @ fault_tests @ incr_tests @ fused_tests @ parallel_tests
  @ obs_tests @ serve_tests

let all_tests =
  match !only with
  | None -> all_tests
  | Some sub -> List.filter (fun t -> name_contains ~sub (Test.name t)) all_tests

let () =
  if all_tests = [] then begin
    Printf.eprintf "--only %s matched no benchmarks\n"
      (Option.value ~default:"" !only);
    exit 2
  end

let benchmark test =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if !quick then Benchmark.cfg ~limit:20 ~quota:(Time.second 0.01) ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances test in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  Analyze.merge ols instances results

let pp_ns ppf v =
  if v > 1e9 then Fmt.pf ppf "%8.2f s " (v /. 1e9)
  else if v > 1e6 then Fmt.pf ppf "%8.2f ms" (v /. 1e6)
  else if v > 1e3 then Fmt.pf ppf "%8.2f us" (v /. 1e3)
  else Fmt.pf ppf "%8.1f ns" v

let () =
  print_endline "WebLab PROV benchmark suite (one series per experiment row)";
  print_endline "============================================================";
  let test = Test.make_grouped ~name:"weblab-prov" ~fmt:"%s %s" all_tests in
  let results = benchmark test in
  let clock = Hashtbl.find results (Measure.label Instance.monotonic_clock) in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with
          | Some [ e ] -> e
          | Some _ | None -> nan
        in
        (name, estimate) :: acc)
      clock []
    |> List.sort compare
  in
  List.iter (fun (name, est) -> Fmt.pr "%-54s %a/run@." name pp_ns est) rows;
  (match !json_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc "[\n";
    let last = List.length rows - 1 in
    List.iteri
      (fun i (name, est) ->
        Printf.fprintf oc "  {\"name\": %S, \"ns_per_run\": %s}%s\n" name
          (if Float.is_nan est then "null" else Printf.sprintf "%.1f" est)
          (if i = last then "" else ","))
      rows;
    output_string oc "]\n";
    close_out oc;
    Printf.printf "Wrote %d estimates to %s\n" (last + 1) path);
  print_endline "------------------------------------------------------------";
  print_endline
    "Series: strategy/* (P1), scale_doc/* (P2), scale_rules/* (P3),\n\
     xquery_opt/* (P4), rdf/* (P5), xml/* (P6), reach/* (P7),\n\
     ext/* (P8), index/* (P10), join/* (P11), fault/* (P12),\n\
     incr/* (P13), par/* (P14; see also --parallel-report),\n\
     obs/* (P15; see also --obs-guard), fused/* (P16),\n\
     serve/* (P17), paper/* (F1-E9).\n\
     See EXPERIMENTS.md for the discussion."
