(* The Figure 5 architecture end to end on the daemon path:

   1. Recording: a serving session runs the workflow one call at a time.
      The Recorder labels resources, Fused infers the provenance links as
      each call commits, and the session appends each commit's triples to
      its write-ahead log (the Provenance store).
   2. Restart: the session is closed and — conceptually in another
      process — restored from the log alone.
   3. Request manager: the restored session answers SPARQL and lineage
      queries over the recovered store, exactly as the live one did.

   The run fails unless the restored Turtle and commit, failure and link
   counts equal the live session's.

   Run with:  dune exec examples/request_manager.exe *)

open Weblab_workflow
open Weblab_services
open Weblab_prov
open Weblab_server

let () =
  let rulebook =
    List.map
      (fun (e : Catalog.entry) ->
        ( Service.name e.Catalog.service,
          List.map Rule_parser.parse e.Catalog.rules ))
      Catalog.entries
  in
  let dir = Filename.temp_dir "weblab-request-manager" "" in
  let wal_path = Filename.concat dir "exec-2026-07-04.wal" in
  let restored_agrees =
    Fun.protect
      ~finally:(fun () ->
        if Sys.file_exists wal_path then Sys.remove wal_path;
        Sys.rmdir dir)
    @@ fun () ->
    (* ---- 1. Recording ---- *)
    let id = "exec-2026-07-04" in
    let doc = Workload.make_document ~units:3 ~seed:2026 () in
    let live = Session.create ~id ~backend:`Fused ~wal_path ~doc rulebook in
    List.iter
      (fun svc ->
        match Session.commit live svc with
        | Ok c ->
          Printf.printf "t%d %-18s +%d nodes, %d promoted\n" c.Session.time
            (Service.name svc) c.Session.new_nodes c.Session.promoted
        | Error _ -> failwith ("call failed: " ^ Service.name svc))
      (Workload.standard_pipeline ~extended:true ());
    ignore (Session.close live);
    let live_turtle = Session.turtle live in
    Printf.printf "Recorded: %d links, write-ahead log of %Ld bytes\n\n"
      (Session.stats live).Session.st_links
      (In_channel.with_open_bin wal_path In_channel.length);

    (* ---- 2. Restart: the log is all that is left ---- *)
    let restored, rp = Session.restore ~id ~wal_path in
    Printf.printf "Restored %d triples from %d commit(s)\n\n"
      rp.Weblab_rdf.Wal.rp_triples rp.Weblab_rdf.Wal.rp_commits;

    (* ---- 3. Request manager ---- *)
    let queries =
      [ "SELECT ?b ?a WHERE { ?b prov:wasDerivedFrom ?a } LIMIT 5";
        "SELECT ?e WHERE { ?e prov:wasGeneratedBy ?act . \
         ?act prov:wasAssociatedWith \
         <http://weblab.ow2.org/prov#service/Summarizer> }";
        "ASK { ?b prov:wasDerivedFrom ?a . FILTER(?b != ?a) }" ]
    in
    List.iter
      (fun q ->
        Printf.printf "Query: %s\n" q;
        (match Weblab_rdf.Sparql.run_result (Session.store restored) q with
         | Weblab_rdf.Sparql.Solutions t ->
           print_string (Weblab_relalg.Table.to_string t)
         | Weblab_rdf.Sparql.Boolean b -> Printf.printf "  -> %B\n" b);
        print_newline ())
      queries;
    (* The resource with the longest lineage, by a [why] per resource. *)
    let uri, up =
      List.fold_left
        (fun (u, up) (v, _) ->
          let up' = Session.why restored v in
          if List.length up' > List.length up then (v, up') else (u, up))
        ("", [])
        (Prov_graph.labeled_resources (Session.graph restored))
    in
    Printf.printf "Longest lineage: %s <- %s\n" uri (String.concat ", " up);
    let counts s =
      let st = Session.stats s in
      (st.Session.st_commits, st.Session.st_failed, st.Session.st_links)
    in
    String.equal (Session.turtle restored) live_turtle
    && counts restored = counts live
  in
  if not restored_agrees then begin
    prerr_endline "restored Turtle or counts differ from the live session's";
    exit 1
  end;
  print_endline "Restored Turtle and counts = live"
