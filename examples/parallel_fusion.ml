(* Parallel media fusion — the §8 extension in a realistic shape.

   An intelligence-fusion workflow processes one report through three
   concurrent branches:

                      ┌── OCR ──── Normalise/Lang (images)
     acquisition ─────┼── ASR ──── Normalise/Lang (audio)
                      └── Normalise ── Lang        (text)
                      └──────────┬────────────────┘
                                Join: summarizer over everything

   The branches are concurrent: although execution interleaves them (the
   scheduler is breadth-first, so their timestamps interleave too), no
   provenance link may cross from one branch to a sibling.  The example
   shows the channel metadata, the happened-before relation, and compares
   channel-aware inference with (incorrect) timestamp-only inference.

   Run with:  dune exec examples/parallel_fusion.exe *)

open Weblab_workflow
open Weblab_services
open Weblab_prov

let rulebook_for names =
  List.filter_map
    (fun name ->
      Catalog.find name
      |> Option.map (fun e ->
             (name, List.map Rule_parser.parse e.Catalog.rules)))
    names

let () =
  let doc = Workload.make_document ~units:2 ~images:1 ~audios:1 ~seed:99 () in
  (* The image branch tokenizes its own recovered text; the audio branch
     runs concurrently.  Because this simulation shares one arena, the
     Tokenizer physically sees the sibling's fresh unit too — but the
     declared control flow says it could not have: channel-aware
     provenance must refuse that dependency, while timestamp-only
     inference would assert it. *)
  let wf =
    Parallel.(
      Seq
        [ Par
            [ Nested ("image-branch",
                      Seq [ Call Media.ocr_service; Call Tokenizer.service ]);
              Nested ("audio-branch",
                      Seq [ Call Media.asr_service ]);
              Nested ("text-branch",
                      Seq [ Call Normaliser.service ]) ];
          Call Language_extractor.service;
          Call (Summarizer.service ()) ])
  in
  let rb =
    rulebook_for
      [ "OcrService"; "SpeechToText"; "Normaliser"; "Tokenizer";
        "LanguageExtractor"; "Summarizer" ]
  in
  let exec, pexec, g = Engine.run_parallel ~strategy:`Rewrite doc wf rb in

  print_endline "=== Schedule (note: branch calls interleave) ===";
  List.iter
    (fun (c : Trace.call) ->
      if c.Trace.time > 0 then
        Printf.printf "  t%-2d %-18s channel %s\n" c.Trace.time c.Trace.service
          (Option.value ~default:"?" (Parallel.channel_of pexec c.Trace.time)))
    (Trace.calls exec.Engine.trace);

  print_endline "\n=== Happened-before (excerpt) ===";
  let calls =
    Trace.calls exec.Engine.trace
    |> List.filter (fun (c : Trace.call) -> c.Trace.time > 0)
  in
  List.iter
    (fun (a : Trace.call) ->
      let after =
        List.filter
          (fun (b : Trace.call) ->
            Parallel.happened_before pexec a.Trace.time b.Trace.time)
          calls
      in
      Printf.printf "  %-14s precedes: %s\n" a.Trace.service
        (String.concat ", " (List.map (fun c -> c.Trace.service) after)))
    calls;

  print_endline "\n=== Provenance (channel-aware) ===";
  print_string (Prov_graph.provenance_table ~with_rule:true g);

  (* Show the difference with timestamp-only inference. *)
  let g_naive =
    Strategy.infer ~strategy:`Rewrite ~doc ~trace:exec.Engine.trace rb
  in
  let key gr =
    Prov_graph.links gr
    |> List.map (fun l -> (l.Prov_graph.from_uri, l.Prov_graph.to_uri))
    |> List.sort_uniq compare
  in
  let spurious = List.filter (fun l -> not (List.mem l (key g))) (key g_naive) in
  Printf.printf
    "\nTimestamp-only inference would add %d spurious cross-branch link(s):\n"
    (List.length spurious);
  List.iter (fun (b, a) -> Printf.printf "  %s -> %s  (WRONG)\n" b a) spurious;

  (* A composite view: collapse each branch into one module. *)
  let view =
    Views.by_services
      [ ("MediaRecovery", [ "OcrService"; "SpeechToText"; "Normaliser" ]);
        ("Analysis", [ "LanguageExtractor"; "Summarizer" ]) ]
  in
  print_endline "\n=== Module-level graph (composite view) ===";
  List.iter
    (fun (a, b) -> Printf.printf "  %s wasInformedBy %s\n" a b)
    (Views.module_graph g view);

  (* Upstream closure over the dependency edges. *)
  let summaries =
    Prov_graph.labeled_resources g
    |> List.filter_map (fun (uri, c) ->
           if c.Trace.service = "Summarizer" then Some uri else None)
  in
  print_endline "\n=== Upstream sources of each summary (indexed closure) ===";
  List.iter
    (fun s ->
      Printf.printf "  %s <= %s\n" s
        (String.concat ", " (Query.depends_on_transitive g s)))
    summaries
