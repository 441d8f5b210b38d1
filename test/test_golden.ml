(* Golden test: the complete `figures` output — every paper artifact — is
   pinned byte-for-byte.  When a legitimate change alters the rendering,
   regenerate with:  dune exec bin/main.exe -- figures > test/golden/figures.txt *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let rendered () =
  let e = Weblab_scenario.Paper.run () in
  Weblab_scenario.Figures.all e
  |> List.map (fun (title, body) -> Printf.sprintf "=== %s ===\n%s\n" title body)
  |> String.concat ""

(* dune runtest stages the dep next to the binary; dune exec runs from the
   workspace root — accept both. *)
let golden_path name =
  let staged = Filename.concat "golden" name in
  if Sys.file_exists staged then staged else Filename.concat "test/golden" name

let check_golden name actual =
  let expected = read_file (golden_path name) in
  if not (String.equal expected actual) then begin
    (* precise first-difference report *)
    let n = min (String.length expected) (String.length actual) in
    let rec diff i = if i < n && expected.[i] = actual.[i] then diff (i + 1) else i in
    let i = diff 0 in
    Alcotest.failf
      "output diverged from golden/%s at byte %d:\n\
       expected … %S\n  actual … %S"
      name i
      (String.sub expected i (min 60 (String.length expected - i)))
      (String.sub actual i (min 60 (String.length actual - i)))
  end

let test_figures_golden () = check_golden "figures.txt" (rendered ())

(* The Turtle of `weblab-prov export --units 16 --seed 7`: the PROV export
   of a fault-free, Skolem-free run is pinned byte for byte, promotions
   included.  Regenerate with:
     dune exec bin/main.exe -- export --units 16 --seed 7 > test/golden/export_ttl.txt *)
let test_export_golden () =
  let open Weblab_prov in
  let services = Weblab_services.Workload.standard_pipeline () in
  let rb =
    List.filter_map
      (fun svc ->
        let name = Weblab_workflow.Service.name svc in
        Weblab_services.Catalog.find name
        |> Option.map (fun e ->
               (name, List.map Rule_parser.parse e.Weblab_services.Catalog.rules)))
      services
  in
  let doc = Weblab_services.Workload.make_document ~units:16 ~seed:7 () in
  let _, g = Engine.run_with_strategy ~jobs:1 `Rewrite doc services rb in
  check_golden "export_ttl.txt" (Prov_export.to_turtle g)

(* Soak: a long mixed pipeline over a larger corpus keeps every invariant. *)
let test_soak () =
  let open Weblab_workflow in
  let open Weblab_prov in
  let doc =
    Weblab_services.Workload.make_document ~units:12 ~images:2 ~audios:2
      ~seed:20260704 ()
  in
  let services =
    [ Weblab_services.Media.ocr_service; Weblab_services.Media.asr_service ]
    @ Weblab_services.Workload.chain_pipeline 18
  in
  let rb =
    List.filter_map
      (fun svc ->
        Weblab_services.Catalog.find (Service.name svc)
        |> Option.map (fun e ->
               ( Service.name svc,
                 List.map Rule_parser.parse e.Weblab_services.Catalog.rules )))
      services
  in
  let exec = Engine.run doc services in
  let g1 = Engine.provenance ~strategy:`Replay exec rb in
  let g2 = Engine.provenance ~strategy:`Rewrite exec rb in
  let key g =
    Prov_graph.links g
    |> List.map (fun l -> (l.Prov_graph.from_uri, l.Prov_graph.to_uri, l.Prov_graph.rule))
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "strategies agree at scale" true (key g1 = key g2);
  Alcotest.(check bool) "hundreds of links" true (Prov_graph.size g2 > 100);
  let g2 = Inheritance.close doc g2 in
  Alcotest.(check bool) "acyclic" true (Prov_graph.is_acyclic g2);
  Alcotest.(check bool) "temporally sound" true (Prov_graph.temporally_sound g2);
  Alcotest.(check bool) "monotone timestamps" true
    (Weblab_xml.Doc_state.timestamps_monotonic doc);
  (* reload equality at scale *)
  let doc' = Weblab_xml.Xml_parser.parse (Weblab_xml.Printer.to_string doc) in
  Weblab_xml.Doc_state.restore_timestamps doc';
  let trace' = Trace_io.of_xml (Trace_io.to_xml exec.Engine.trace) in
  let g3 = Strategy.infer ~strategy:`Rewrite ~doc:doc' ~trace:trace' rb in
  Alcotest.(check bool) "reload equality at scale" true (key g2 <> [] && key g3 = key (Engine.provenance ~strategy:`Rewrite exec rb))

let () =
  Alcotest.run "golden"
    [ ( "figures", [ Alcotest.test_case "golden output" `Quick test_figures_golden ] );
      ( "export", [ Alcotest.test_case "golden Turtle" `Quick test_export_golden ] );
      ( "soak", [ Alcotest.test_case "large pipeline" `Quick test_soak ] ) ]
