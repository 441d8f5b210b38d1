(* weblab-prov: command-line front end.

   - figures: regenerate every figure/table of the paper from a live run
   - run:     execute a synthetic media-mining workflow and print its
              trace, provenance tables and final document
   - export:  emit the provenance graph as Turtle, N-Triples or DOT
   - query:   run a SPARQL query against the exported provenance graph *)

open Cmdliner
open Weblab_prov
open Weblab_scenario

(* Parser, error message and usage string all derive from the backend
   registry: a newly registered backend is accepted and documented here
   with no edit to this file. *)
let strategy_conv =
  let parse s =
    match Strategy.kind_of_string s with
    | Some k -> Ok k
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown strategy %S (%s)" s
             (String.concat "|" Strategy.names)))
  in
  let print ppf s = Fmt.string ppf (Strategy.kind_to_string s) in
  Arg.conv (parse, print)

let strategy_arg =
  let pretty_names =
    match List.rev (List.map (Printf.sprintf "$(b,%s)") Strategy.names) with
    | [] -> ""
    | [ only ] -> only
    | last :: rev_init ->
      String.concat ", " (List.rev rev_init) ^ " or " ^ last
  in
  Arg.(value & opt strategy_conv `Rewrite
       & info [ "strategy" ] ~docv:"STRATEGY"
           ~doc:
             (Printf.sprintf
                "Evaluation strategy: %s.  All produce the same links; \
                 online and fused infer during execution \
                 (fused compiles the whole rule set into one shared plan), \
                 replay and rewrite post-hoc."
                pretty_names))

let inherit_arg =
  Arg.(value & flag
       & info [ "inherit" ] ~doc:"Also compute inherited provenance links.")

let units_arg =
  Arg.(value & opt int 3
       & info [ "units" ] ~docv:"N" ~doc:"Number of media units in the corpus.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

let extended_arg =
  Arg.(value & flag
       & info [ "extended" ]
           ~doc:"Use the extended pipeline (tokenizer, entities, summary, \
                 sentiment).")

let fault_rate_arg =
  Arg.(value & opt float 0.0
       & info [ "fault-rate" ] ~docv:"RATE"
           ~doc:"Inject seeded faults (crash, garbage XML, committed-node \
                 mutation, duplicate URI, stall) with this per-attempt \
                 probability; failed calls are rolled back and skipped, and \
                 provenance is inferred over the surviving calls.")

let retries_arg =
  Arg.(value & opt int 0
       & info [ "retries" ] ~docv:"N"
           ~doc:"Retry each failing call up to $(docv) times with simulated \
                 exponential backoff before giving up on it.")

let jobs_arg =
  Arg.(value & opt int (Pool.default_jobs ())
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Inference parallelism: fan rule evaluation out over \
                 $(docv) domains (default: available cores minus one, or \
                 the $(b,JOBS) environment variable).  The provenance \
                 graph is bit-identical for every value; $(b,--jobs 1) \
                 is the sequential path.")

(* --- observability options (shared by figures/run/export) --- *)

type obs_opts = {
  profile : bool;
  trace_out : string option;
  events_out : string option;
  meta_prov : bool;
  logical_clock : bool;
}

let obs_term =
  let profile =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:"Record telemetry during the run and print a summary \
                   (span table and counters) at the end.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE.json"
             ~doc:"Write a Chrome trace-event JSON file — load it in \
                   Perfetto; one track per domain worker.")
  in
  let events_out =
    Arg.(value & opt (some string) None
         & info [ "events-out" ] ~docv:"FILE.jsonl"
             ~doc:"Write the telemetry event log as JSON Lines.")
  in
  let meta_prov =
    Arg.(value & flag
         & info [ "meta-prov" ]
             ~doc:"Record the inference run itself as PROV: one activity \
                   per service call × rule evaluation, every inferred link \
                   $(b,prov:wasGeneratedBy) the evaluation that produced \
                   it.")
  in
  let logical_clock =
    Arg.(value & flag
         & info [ "logical-clock" ]
             ~doc:"Timestamp telemetry with a deterministic logical tick \
                   counter instead of the wall clock (stable output for \
                   golden tests).")
  in
  Term.(const (fun profile trace_out events_out meta_prov logical_clock ->
            { profile; trace_out; events_out; meta_prov; logical_clock })
        $ profile $ trace_out $ events_out $ meta_prov $ logical_clock)

let obs_setup (o : obs_opts) =
  let module T = Weblab_obs.Telemetry in
  let full = o.profile || o.trace_out <> None || o.events_out <> None in
  T.set_level (if full then T.Full else T.Off);
  T.set_meta o.meta_prov;
  T.set_clock (if o.logical_clock then T.Logical else T.Wall);
  T.reset ()

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* Flush the recorder after an instrumented run: sink files first, the
   human summary last so it reads as the run's epilogue. *)
let obs_report (o : obs_opts) =
  (match o.events_out with
   | Some path ->
     write_file path (Weblab_obs.Sinks.jsonl ());
     Printf.eprintf "telemetry events written to %s\n%!" path
   | None -> ());
  (match o.trace_out with
   | Some path ->
     write_file path (Weblab_obs.Sinks.chrome_trace ());
     Printf.eprintf "Chrome trace written to %s (open in Perfetto)\n%!" path
   | None -> ());
  if o.profile then begin
    print_string "\n=== Telemetry summary ===\n";
    print_string (Weblab_obs.Sinks.summary ())
  end

let meta_prov_turtle () =
  Weblab_rdf.Turtle.to_turtle
    (Prov_export.meta_to_store (Weblab_obs.Telemetry.meta_activities ()))

(* --- the compiled-plan dump (--explain-plan) --- *)

let explain_plan_arg =
  Arg.(value & flag
       & info [ "explain-plan" ]
           ~doc:"Print the fused rule-set compiler's plan for the \
                 command's rulebook — pattern trie, shared \
                 subexpressions, join order — in a stable textual form, \
                 and exit without running the workflow.")

(* --- figures --- *)

let figures obs only explain_plan =
  obs_setup obs;
  if explain_plan then
    (* The paper scenario's plan: deterministic (rulebook order, initial
       document estimates) — CI diffs it against a golden dump. *)
    print_string
      (Strategy_fused.explain ~doc:(Paper.initial_document ())
         (Paper.rulebook ()))
  else begin
  let e = Paper.run () in
  List.iter
    (fun (title, body) ->
      let wanted =
        match only with
        | None -> true
        | Some o ->
          String.lowercase_ascii title = String.lowercase_ascii o
          || String.equal (List.nth (String.split_on_char ' ' title) 1) o
      in
      if wanted then Printf.printf "=== %s ===\n%s\n" title body)
    (Figures.all e);
  if obs.meta_prov then begin
    print_string "=== Meta-provenance (inference run as PROV) ===\n";
    print_string (meta_prov_turtle ())
  end;
  obs_report obs
  end

let figures_cmd =
  let only =
    Arg.(value & opt (some string) None
         & info [ "only" ] ~docv:"WHICH"
             ~doc:"Print a single artifact, e.g. $(b,--only 'Figure 2') or \
                   $(b,--only 5).")
  in
  Cmd.v (Cmd.info "figures" ~doc:"Regenerate the paper's figures and examples")
    Term.(const figures $ obs_term $ only $ explain_plan_arg)

(* --- shared pipeline runner --- *)

let build_rulebook services =
  List.filter_map
    (fun svc ->
      let name = Weblab_workflow.Service.name svc in
      Weblab_services.Catalog.find name
      |> Option.map (fun e ->
             (name, List.map Rule_parser.parse e.Weblab_services.Catalog.rules)))
    services

(* Supervision policy from the CLI knobs: a positive fault rate turns on
   skip-on-failure (the run completes and provenance covers the surviving
   calls); retries get a 10 ms simulated backoff base. *)
let fault_policy ~fault_rate ~retries =
  { Weblab_workflow.Orchestrator.default_policy with
    retries;
    backoff_ms = (if retries > 0 then 10. else 0.);
    on_failure = (if fault_rate > 0. then `Skip else `Propagate) }

let maybe_wrap_faulty ~fault_rate ~seed services =
  if fault_rate > 0. then
    Weblab_services.Faulty.wrap_all
      (Weblab_services.Faulty.plan ~rate:fault_rate ~seed ())
      services
  else services

let run_pipeline ~units ~seed ~extended ~(strategy : Strategy.kind)
    ~inheritance ~fault_rate ~retries ~jobs =
  let doc = Weblab_services.Workload.make_document ~units ~seed () in
  let services = Weblab_services.Workload.standard_pipeline ~extended () in
  let rb = build_rulebook services in
  let services = maybe_wrap_faulty ~fault_rate ~seed services in
  let policy = fault_policy ~fault_rate ~retries in
  let exec, g = Engine.run_with_strategy ~policy ~jobs strategy doc services rb in
  let g = if inheritance then Inheritance.close exec.Engine.doc g else g in
  (exec, g)

(* --- run --- *)

let resolve_catalog name =
  Option.map
    (fun e -> e.Weblab_services.Catalog.service)
    (Weblab_services.Catalog.find name)

let rec wrap_wf plan = function
  | Weblab_workflow.Parallel.Call s ->
    Weblab_workflow.Parallel.Call (Weblab_services.Faulty.wrap plan s)
  | Weblab_workflow.Parallel.Seq l ->
    Weblab_workflow.Parallel.Seq (List.map (wrap_wf plan) l)
  | Weblab_workflow.Parallel.Par l ->
    Weblab_workflow.Parallel.Par (List.map (wrap_wf plan) l)
  | Weblab_workflow.Parallel.Nested (n, b) ->
    Weblab_workflow.Parallel.Nested (n, wrap_wf plan b)

let run_dsl ~units ~seed ~(strategy : Strategy.kind) ~inheritance ~fault_rate
    ~retries ~jobs spec =
  (* Parallel workflow inference is post-hoc (it needs the series-parallel
     happened-before relation, only known once the schedule is recorded). *)
  let strategy : Strategy.post_hoc =
    match strategy with
    | (`Replay | `Rewrite) as s -> s
    | (`Online | `Fused) as s ->
      Printf.eprintf
        "strategy %s is execution-time only; parallel workflow expressions \
         infer post-hoc (use replay or rewrite)\n"
        (Strategy.kind_to_string s);
      exit 1
  in
  let doc = Weblab_services.Workload.make_document ~units ~seed () in
  match Weblab_workflow.Wf_parser.parse_opt ~resolve:resolve_catalog spec with
  | Error msg ->
    Printf.eprintf "workflow error: %s\n" msg;
    exit 1
  | Ok wf ->
    let rec service_names = function
      | Weblab_workflow.Parallel.Call s -> [ Weblab_workflow.Service.name s ]
      | Weblab_workflow.Parallel.Seq l | Weblab_workflow.Parallel.Par l ->
        List.concat_map service_names l
      | Weblab_workflow.Parallel.Nested (_, b) -> service_names b
    in
    let rb =
      service_names wf
      |> List.sort_uniq String.compare
      |> List.filter_map (fun name ->
             Weblab_services.Catalog.find name
             |> Option.map (fun e ->
                    (name, List.map Rule_parser.parse e.Weblab_services.Catalog.rules)))
    in
    let wf =
      if fault_rate > 0. then
        wrap_wf (Weblab_services.Faulty.plan ~rate:fault_rate ~seed ()) wf
      else wf
    in
    let policy = fault_policy ~fault_rate ~retries in
    let exec, pexec, g =
      Engine.run_parallel ~policy ~strategy ~inheritance ~jobs doc wf rb
    in
    print_string "Schedule (with channels):\n";
    List.iter
      (fun (c : Weblab_workflow.Trace.call) ->
        if c.Weblab_workflow.Trace.time > 0 then
          Printf.printf "  t%-2d %-18s %s\n" c.Weblab_workflow.Trace.time
            c.Weblab_workflow.Trace.service
            (Option.value ~default:"?"
               (Weblab_workflow.Parallel.channel_of pexec
                  c.Weblab_workflow.Trace.time)))
      (Weblab_workflow.Trace.calls exec.Engine.trace);
    (exec, g)

let run obs units seed extended strategy inheritance fault_rate retries jobs
    show_doc workflow explain_plan =
  obs_setup obs;
  if explain_plan then begin
    let doc = Weblab_services.Workload.make_document ~units ~seed () in
    let services = Weblab_services.Workload.standard_pipeline ~extended () in
    print_string (Strategy_fused.explain ~doc (build_rulebook services))
  end
  else begin
  let exec, g =
    match workflow with
    | Some spec ->
      run_dsl ~units ~seed ~strategy ~inheritance ~fault_rate ~retries ~jobs
        spec
    | None ->
      run_pipeline ~units ~seed ~extended ~strategy ~inheritance ~fault_rate
        ~retries ~jobs
  in
  print_string "Source (execution trace):\n";
  print_string (Weblab_workflow.Trace.source_table exec.Engine.trace);
  if fault_rate > 0. then begin
    print_string "\nAttempts:\n";
    print_string (Weblab_workflow.Trace.attempts_table exec.Engine.trace);
    print_string "\nFailure summary:\n";
    print_string
      (Analytics.failure_stats_to_string
         (Analytics.failure_stats exec.Engine.trace))
  end;
  print_string "\nProvenance links:\n";
  print_string (Prov_graph.provenance_table ~with_rule:true g);
  Printf.printf "\n%d resources, %d links, acyclic=%b, temporally sound=%b\n"
    (List.length (Prov_graph.labeled_resources g))
    (Prov_graph.size g) (Prov_graph.is_acyclic g) (Prov_graph.temporally_sound g);
  (* With fault injection the failure tally belongs in the closing summary
     too — the tables above scroll away, and these are the same numbers the
     telemetry counters (orch.calls.*, orch.attempts, orch.backoff_ms)
     accumulate. *)
  if fault_rate > 0. then begin
    let st = Analytics.failure_stats exec.Engine.trace in
    Printf.printf
      "faults: %d/%d calls failed, %d retried, %d attempts, %.1f ms \
       simulated backoff\n"
      st.Analytics.calls_failed st.Analytics.calls_total
      st.Analytics.calls_retried st.Analytics.attempts_total
      st.Analytics.backoff_ms_total
  end;
  if show_doc then begin
    print_string "\nFinal document:\n";
    print_string (Weblab_xml.Printer.to_string ~indent:true exec.Engine.doc);
    print_newline ()
  end;
  if obs.meta_prov then begin
    print_string "\nMeta-provenance (inference run as PROV):\n";
    print_string (meta_prov_turtle ())
  end;
  obs_report obs
  end

let run_cmd =
  let show_doc =
    Arg.(value & flag & info [ "show-doc" ] ~doc:"Print the final XML document.")
  in
  let workflow =
    Arg.(value & opt (some string) None
         & info [ "workflow" ] ~docv:"WF"
             ~doc:"A workflow expression over catalog services, e.g. \
                   $(b,\"(OcrService | Normaliser); LanguageExtractor\"). \
                   ';' sequences, '|' parallelizes, 'name:(...)' nests.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a synthetic media-mining workflow")
    Term.(const run $ obs_term $ units_arg $ seed_arg $ extended_arg
          $ strategy_arg $ inherit_arg $ fault_rate_arg $ retries_arg
          $ jobs_arg $ show_doc $ workflow $ explain_plan_arg)

(* --- export --- *)

let export obs units seed extended strategy inheritance jobs format =
  obs_setup obs;
  let _, g =
    run_pipeline ~units ~seed ~extended ~strategy ~inheritance ~fault_rate:0.0
      ~retries:0 ~jobs
  in
  let meta =
    if obs.meta_prov then Some (Weblab_obs.Telemetry.meta_activities ())
    else None
  in
  (match format with
   | "turtle" -> print_string (Prov_export.to_turtle ?meta g)
   | "ntriples" -> print_string (Prov_export.to_ntriples ?meta g)
   | "dot" -> print_string (Dot.to_dot g)
   | "provxml" -> print_string (Prov_export.to_prov_xml g)
   | f ->
     Printf.eprintf "unknown format %S (turtle|ntriples|dot|provxml)\n" f;
     exit 1);
  obs_report obs

let export_cmd =
  let format =
    Arg.(value & opt string "turtle"
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output format: $(b,turtle), $(b,ntriples), $(b,dot) or \
                   $(b,provxml).")
  in
  Cmd.v (Cmd.info "export" ~doc:"Export the provenance graph")
    Term.(const export $ obs_term $ units_arg $ seed_arg $ extended_arg
          $ strategy_arg $ inherit_arg $ jobs_arg $ format)

(* --- query --- *)

let query units seed extended strategy inheritance jobs q =
  let _, g =
    run_pipeline ~units ~seed ~extended ~strategy ~inheritance ~fault_rate:0.0
      ~retries:0 ~jobs
  in
  let store = Prov_export.to_store g in
  match Weblab_rdf.Sparql.run store q with
  | table -> print_string (Weblab_relalg.Table.to_string table)
  | exception Weblab_rdf.Sparql.Error msg ->
    Printf.eprintf "SPARQL error: %s\n" msg;
    exit 1

let query_cmd =
  let q =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"QUERY"
             ~doc:"A SPARQL query, e.g. \"SELECT ?e WHERE { ?e a prov:Entity }\".")
  in
  Cmd.v (Cmd.info "query" ~doc:"Query the provenance graph with SPARQL")
    Term.(const query $ units_arg $ seed_arg $ extended_arg $ strategy_arg
          $ inherit_arg $ jobs_arg $ q)

(* --- lint --- *)

let lint units seed extended =
  let doc = Weblab_services.Workload.make_document ~units ~seed () in
  let services = Weblab_services.Workload.standard_pipeline ~extended () in
  let order = List.map Weblab_workflow.Service.name services in
  let rb = build_rulebook services in
  let exec = Engine.run doc services in
  let produces = Static_check.observed_produces doc exec.Engine.trace in
  Printf.printf "Workflow order: %s\n" (String.concat " -> " order);
  Printf.printf "Observed production map:\n";
  List.iter
    (fun (s, els) -> Printf.printf "  %-18s %s\n" s (String.concat ", " els))
    produces;
  match Static_check.check ~order ~produces rb with
  | [] -> print_endline "\nRulebook is clean: every rule can fire."
  | diags ->
    Printf.printf "\n%d diagnostic(s):\n" (List.length diags);
    List.iter
      (fun d -> Printf.printf "  - %s\n" (Static_check.diagnostic_to_string d))
      diags;
    exit 1

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically check the rulebook against the workflow definition")
    Term.(const lint $ units_arg $ seed_arg $ extended_arg)

(* --- analyze --- *)

let analyze units seed extended jobs taint =
  let exec, g =
    run_pipeline ~units ~seed ~extended ~strategy:`Rewrite ~inheritance:false
      ~fault_rate:0.0 ~retries:0 ~jobs
  in
  print_endline "=== Provenance metrics (explicit graph) ===";
  print_string (Analytics.metrics_to_string (Analytics.metrics g));
  print_endline "\n=== Storage ablation (explicit vs materialized closure) ===";
  let ab = Analytics.storage_ablation exec.Engine.doc g in
  Printf.printf
    "explicit-only store: %d bytes\nwith closure:        %d bytes\n\
     on-demand saves %.0f%% of storage (%s)\n"
    ab.Analytics.explicit_only_bytes ab.Analytics.materialized_bytes
    (100.0 *. ab.Analytics.savings) ab.Analytics.closure_cost_ms_hint;
  match taint with
  | None -> ()
  | Some source ->
    let g = Inheritance.close exec.Engine.doc g in
    print_endline "\n=== Replay plan ===";
    print_string (Replay_plan.to_string (Replay_plan.build g ~sources:[ source ]))

let analyze_cmd =
  let taint =
    Arg.(value & opt (some string) None
         & info [ "taint" ] ~docv:"URI"
             ~doc:"Also compute the re-execution plan if this resource is \
                   stale (try $(b,mu1)).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Provenance metrics, storage ablation and replay planning")
    Term.(const analyze $ units_arg $ seed_arg $ extended_arg $ jobs_arg
          $ taint)

(* --- explain --- *)

let explain units seed extended from_uri to_uri =
  let doc = Weblab_services.Workload.make_document ~units ~seed () in
  let services = Weblab_services.Workload.standard_pipeline ~extended () in
  let rb = build_rulebook services in
  let exec = Engine.run doc services in
  match
    Explain.link ~doc ~trace:exec.Engine.trace rb ~from_uri ~to_uri
  with
  | _ :: _ as ws ->
    Printf.printf "%s -> %s holds because:\n" from_uri to_uri;
    List.iter (fun w -> Printf.printf "  - %s\n" (Explain.witness_to_string w)) ws
  | [] ->
    Printf.printf "no %s -> %s link.  Closest attempts:\n" from_uri to_uri;
    let ds = Explain.missing ~doc ~trace:exec.Engine.trace rb ~from_uri ~to_uri in
    if ds = [] then print_endline "  (no rule could relate these resources)"
    else
      List.iter
        (fun d ->
          Printf.printf "  - rule %s at (%s, t%d): %s\n" d.Explain.d_rule
            d.Explain.d_call.Weblab_workflow.Trace.service
            d.Explain.d_call.Weblab_workflow.Trace.time
            (Explain.failure_to_string d.Explain.failure))
        ds

let explain_cmd =
  let from_uri =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FROM" ~doc:"The derived resource.")
  in
  let to_uri =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"TO" ~doc:"The resource it (supposedly) used.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Explain why a provenance link exists (or why it does not)")
    Term.(const explain $ units_arg $ seed_arg $ extended_arg $ from_uri $ to_uri)

let main_cmd =
  Cmd.group
    (Cmd.info "weblab-prov" ~version:"1.0.0"
       ~doc:"Fine-grained provenance links for XML artifacts (WebLab PROV)")
    [ figures_cmd; run_cmd; export_cmd; query_cmd; lint_cmd; analyze_cmd;
      explain_cmd ]

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  exit (Cmd.eval main_cmd)
