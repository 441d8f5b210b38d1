(* The traced run: the first sessions of the daemon phase's plan replayed
   in-process, with spans recorded here, in the benchmark, around calls
   into each layer's public functions.  Nothing inside the program is
   instrumented for it.

   Per request, in the order the daemon runs them:
   - the request codec ([Json.parse], [Json.to_string]) around
     [Protocol.handle] on a context configured as the daemon is; the
     Session call inside the handler is read off the session's own
     latency histogram, so dispatch = handle minus that call;
   - on commits, [Session.commit] on a twin session of the opposite
     persistence, so persisted minus unpersisted commit time is the sync
     cost on the same inputs;
   - a shadow execution ([Orchestrator.step ~on_step] with the backend
     the daemon uses for sessions that name none) timing step and
     observe, then the sync's snapshot and export
     ([Prov_export.to_store]), which the workload's queries reuse
     ([Reachability], [Sparql.run]);
   - at close, finalize, export and [Turtle.to_turtle], checked
     byte-identical to the Turtle the daemon returned, and
     [Wal.replay] of the persisted session's log.

   Layers a workload's requests never reach are measured once per
   session at close on that session's data (reachability and SPARQL on
   its final graph, [Ingest.of_string] and [Diff.diff] on its document
   printed as XML), so every layer has a figure on every workload; those
   probes do not move that workload's end-to-end metrics.

   Beside each traced request, the same request runs untraced through
   [Protocol.handle_line] on a second context: the untraced commit time
   the trace overhead is measured against, taken back to back with the
   traced one so host speed drift cancels.  [server.io_ms] is what the
   client waited beyond the daemon's own handling time (its per-verb
   histograms, read over the daemon phase) and the request codec (timed
   by the client right after each reply). *)

module J = Weblab_server.Json
module P = Weblab_server.Protocol
module S = Weblab_server.Session
module M = Weblab_obs.Metrics
module T = Weblab_obs.Telemetry
module Rdf = Weblab_rdf
open Weblab_xml
open Weblab_workflow
open Weblab_prov

type t = {
  metrics : (string * Schema.metric) list;
  attempted : int;
  failed : int;
  why : string list;  (** first failed checks *)
}

(* Sessions replayed: the first of the plan, few enough that the replay
   adds well under a minute to a run. *)
let trace_sessions = function
  | Gen.Persist_chain -> 2
  | Gen.Infer_query -> 3
  | Gen.Xml_ingest -> 10

let session_hists =
  List.map M.hist
    [ "session.commit"; "session.query.why"; "session.query.impact";
      "session.query.sparql"; "session.query.turtle" ]

let session_us () = List.fold_left (fun a h -> a + (M.view h).M.hv_sum_us) 0 session_hists

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* The shadow execution: an orchestrator session and a backend instance,
   with the query-side state derived from the last sync. *)
type shadow = {
  orch : Orchestrator.session;
  observe : Trace.call -> Doc_state.t -> Doc_state.t -> Orchestrator.delta -> unit;
  snapshot : unit -> Prov_graph.t;
  finalize : unit -> Prov_graph.t;
  initial_xml : string;
  mutable graph : Prov_graph.t option;
  mutable reach : Reachability.t option;
  mutable store : Rdf.Triple_store.t option;
}

let shadow_of (ctx : P.ctx) doc =
  let (module B) = Strategy.backend_of ctx.P.default_backend in
  let orch = Orchestrator.start ~policy:S.default_budgets.S.policy doc in
  let st = B.init ~jobs:1 ~doc ctx.P.rulebook in
  let trace () = Orchestrator.session_trace orch in
  { orch;
    observe = (fun call before after delta -> B.observe st ~call ~before ~after ~delta);
    snapshot = (fun () -> B.snapshot st ~doc:(Orchestrator.session_doc orch) ~trace:(trace ()));
    finalize = (fun () -> B.finalize st ~doc:(Orchestrator.session_doc orch) ~trace:(trace ()));
    initial_xml = Printer.to_string (Orchestrator.session_doc orch);
    graph = None; reach = None; store = None }

let open_doc (s : Gen.session) =
  if s.Gen.units = 0 then Orchestrator.initial_document ()
  else Weblab_services.Workload.make_document ~units:s.Gen.units ~seed:s.Gen.doc_seed ()

let service_of req =
  match (J.str_member "service" req, J.str_member "xml" req) with
  | Some name, _ -> (Option.get (Weblab_services.Catalog.find name)).Weblab_services.Catalog.service
  | None, Some xml -> S.client_xml_service xml
  | None, None -> invalid_arg "commit without service or xml"

(* Exact counts and per-commit samples gathered over the replay. *)
type acc = {
  mutable attempted : int;
  mutable failed : int;
  mutable why : string list;  (** first failed checks *)
  mutable commits : int;
  mutable new_nodes : int;
  mutable links : int;
  mutable built : int;  (** triples built by export *)
  mutable kept : int;  (** triples of the sessions' final export stores *)
  mutable wal_commit_bytes : int;  (** WAL bytes appended by commits *)
  mutable wal_bytes : int;  (** WAL bytes appended in all *)
  mutable wal_compacted : int;
  mutable ingest_bytes : int;
  mutable commit_ctx_s : float list;  (** Session.commit inside Protocol.handle *)
  mutable commit_twin_s : float list;
  mutable dispatch_s : float list;  (** handle minus its Session call, commits and queries *)
  mutable traced_commit_s : float list;  (** decode + handle + encode of commits *)
  mutable untraced_commit_s : float list;  (** handle_line of commits *)
}

let check acc ok what =
  acc.attempted <- acc.attempted + 1;
  if not ok then begin
    acc.failed <- acc.failed + 1;
    if List.length acc.why < 5 then acc.why <- what :: acc.why
  end

let graph sh =
  match sh.graph with
  | Some g -> g
  | None ->
    let g = Span.span "strategy.snapshot" sh.snapshot in
    sh.graph <- Some g;
    g

let store acc sh =
  match sh.store with
  | Some st -> st
  | None ->
    let g = graph sh in
    let st =
      Span.span "prov_export.to_store" (fun () ->
          Prov_export.to_store ~trace:(Orchestrator.session_trace sh.orch) g)
    in
    acc.built <- acc.built + Rdf.Triple_store.size st;
    sh.store <- Some st;
    st

let reach sh =
  match sh.reach with
  | Some r -> r
  | None ->
    let r = Span.span "reachability.build" (fun () -> Reachability.build (graph sh)) in
    sh.reach <- Some r;
    r

let shadow_commit acc sh svc req =
  (match J.str_member "xml" req with
  | Some xml ->
    (* The orchestrator ingests and diffs a client document inside its
       step; the same calls on the same inputs, made here beside it, are
       what the step's time is split by. *)
    let tree = Span.span "ingest.parse" (fun () -> fst (Ingest.of_string xml)) in
    acc.ingest_bytes <- acc.ingest_bytes + String.length xml;
    ignore
      (Span.span "diff.diff" (fun () ->
           Diff.diff ~old_doc:(Orchestrator.session_doc sh.orch) ~new_doc:tree))
  | None -> ());
  let on_step call before after delta =
    Span.span "strategy.observe" (fun () -> sh.observe call before after delta)
  in
  match Span.span "orchestrator.step" (fun () -> Orchestrator.step ~on_step sh.orch svc) with
  | Orchestrator.Committed { delta; _ } ->
    acc.new_nodes <- acc.new_nodes + List.length delta.Orchestrator.new_nodes;
    sh.graph <- None;
    sh.reach <- None;
    sh.store <- None;
    (* The sync a persisted session runs: snapshot, then export. *)
    Span.span "session.sync" (fun () -> ignore (store acc sh));
    check acc true "shadow commit"
  | Orchestrator.Step_failed { reason; _ } -> check acc false ("shadow commit: " ^ reason)

type env = {
  w : Gen.workload;
  ctx : P.ctx;  (** configured as the daemon is *)
  untraced : P.ctx;  (** the same, for the untraced pass *)
  persists : bool;  (** whether the daemon persists sessions *)
  wal_dir : string;  (** where the persisted one of ctx's session and its twin logs *)
}

let replay_session acc env (o : Drive.outcome) i (s : Gen.session) =
  let w = env.w in
  let daemon = o.Drive.o_replies.(i) in
  let twin = ref None and shadow = ref None in
  let wal = P.wal_file env.wal_dir s.Gen.sid in
  let wal_open = ref 0 and wal_last = ref 0 in
  Array.iteri
    (fun j (r : Gen.request) ->
      Span.current_req := (i * 100_000) + j;
      let line = Gen.request_line r in
      let untraced () =
        let t0 = Unix.gettimeofday () in
        ignore (P.handle_line env.untraced line);
        Unix.gettimeofday () -. t0
      in
      (* Alternate which of the pair runs first, so the process-wide
         caches the first one fills favour neither side. *)
      let untraced_first = j mod 2 = 0 in
      let untraced_s = if untraced_first then untraced () else 0. in
      let req = Span.span "json.decode" (fun () -> J.parse line) in
      let decode_s = Span.last_duration () in
      let before = session_us () in
      let resp = Span.span "protocol.handle" (fun () -> P.handle env.ctx req) in
      let handle_s = Span.last_duration () in
      let session_s = float_of_int (session_us () - before) /. 1e6 in
      let reply = Span.span "json.encode" (fun () -> J.to_string resp) in
      let traced_s = decode_s +. handle_s +. Span.last_duration () in
      let untraced_s = if untraced_first then untraced_s else untraced () in
      let what = Printf.sprintf "%s request %d" s.Gen.sid j in
      check acc (Drive.acked reply) what;
      match r.Gen.kind with
      | Gen.Open ->
        let doc = open_doc s in
        let tw =
          S.create ~id:s.Gen.sid ~backend:env.ctx.P.default_backend
            ?wal_path:(if env.persists then None else Some wal)
            ~doc:(open_doc s) env.ctx.P.rulebook
        in
        twin := Some tw;
        shadow := Some (shadow_of env.ctx doc);
        wal_open := file_size wal;
        wal_last := !wal_open
      | Gen.Commit ->
        let svc = service_of req in
        acc.commits <- acc.commits + 1;
        acc.commit_ctx_s <- session_s :: acc.commit_ctx_s;
        acc.dispatch_s <- (handle_s -. session_s) :: acc.dispatch_s;
        acc.traced_commit_s <- traced_s :: acc.traced_commit_s;
        acc.untraced_commit_s <- untraced_s :: acc.untraced_commit_s;
        let t0 = Unix.gettimeofday () in
        let ok = Result.is_ok (S.commit (Option.get !twin) svc) in
        acc.commit_twin_s <- (Unix.gettimeofday () -. t0) :: acc.commit_twin_s;
        check acc ok (what ^ ": twin commit");
        let size = file_size wal in
        acc.wal_commit_bytes <- acc.wal_commit_bytes + size - !wal_last;
        wal_last := size;
        shadow_commit acc (Option.get !shadow) svc req
      | Gen.Why | Gen.Impact ->
        acc.dispatch_s <- (handle_s -. session_s) :: acc.dispatch_s;
        let sh = Option.get !shadow in
        let uri = Option.get (J.str_member "uri" req) in
        let uris =
          Span.span "reachability.query" (fun () ->
              if r.Gen.kind = Gen.Why then Reachability.ancestors (reach sh) uri
              else Reachability.descendants (reach sh) uri)
        in
        check acc
          (J.member "uris" (Drive.parse daemon.Drive.reply.(j))
          = Some (J.List (List.map (fun u -> J.Str u) uris)))
          (what ^ ": uris differ from the daemon's")
      | Gen.Sparql ->
        acc.dispatch_s <- (handle_s -. session_s) :: acc.dispatch_s;
        let sh = Option.get !shadow in
        let st = store acc sh in
        let q = Option.get (J.str_member "query" req) in
        let tbl = Span.span "sparql.run" (fun () -> Rdf.Sparql.run st q) in
        check acc
          (Option.map List.length
             (Option.bind (J.member "rows" (Drive.parse daemon.Drive.reply.(j))) J.to_list)
          = Some (List.length (Weblab_relalg.Table.rows tbl)))
          (what ^ ": row count differs from the daemon's")
      | Gen.Stats -> ()
      | Gen.Close ->
        let sh = Option.get !shadow in
        let g = Span.span "strategy.finalize" sh.finalize in
        acc.links <- acc.links + List.length (Prov_graph.links g);
        sh.graph <- Some g;
        sh.reach <- None;
        sh.store <- None;
        let st = store acc sh in
        acc.kept <- acc.kept + Rdf.Triple_store.size st;
        let turtle = Span.span "turtle.render" (fun () -> Rdf.Turtle.to_turtle st) in
        check acc (Some turtle = Checks.turtle_of_close s daemon)
          (what ^ ": turtle differs from the daemon's");
        let tw = Option.get !twin in
        ignore (S.close tw);
        acc.wal_bytes <- acc.wal_bytes + !wal_last;
        acc.wal_compacted <- acc.wal_compacted + file_size wal;
        let replayed, _ = Span.span "wal.replay" (fun () -> Rdf.Wal.replay wal) in
        (* WAL replay reproduces the persisted session's own export.  (A
           persisted session's Turtle can order triples differently from
           an unpersisted one's; see NOTES.md.) *)
        let persisted_turtle = if env.persists then turtle else S.turtle tw in
        check acc (String.equal (Rdf.Turtle.to_turtle replayed) persisted_turtle)
          (what ^ ": replayed WAL differs from the persisted session's turtle");
        (* Probes of the layers this workload's requests do not reach. *)
        if w <> Gen.Infer_query then begin
          let uri = if w = Gen.Xml_ingest then "r1" else Gen.why_uri in
          ignore (Span.span "reachability.query" (fun () -> Reachability.ancestors (reach sh) uri));
          ignore (Span.span "sparql.run" (fun () -> Rdf.Sparql.run st Gen.sparql_query))
        end;
        if w <> Gen.Xml_ingest then begin
          let final_xml = Printer.to_string (Orchestrator.session_doc sh.orch) in
          let old_doc = fst (Ingest.of_string sh.initial_xml) in
          let tree = Span.span "ingest.parse" (fun () -> fst (Ingest.of_string final_xml)) in
          acc.ingest_bytes <- acc.ingest_bytes + String.length final_xml;
          ignore (Span.span "diff.diff" (fun () -> Diff.diff ~old_doc ~new_doc:tree))
        end)
    s.Gen.requests

let mean l = if l = [] then 0. else List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let run ~work_dir (p : Gen.plan) (o : Drive.outcome) =
  let w = p.Gen.workload in
  let k = min (trace_sessions w) (Array.length p.Gen.sessions) in
  let sessions = Array.sub p.Gen.sessions 0 k in
  let dir name =
    let d = Filename.concat work_dir name in
    Unix.mkdir d 0o755;
    d
  in
  let persists = w = Gen.Persist_chain in
  let ctx_of name = if persists then P.make_ctx ~data_dir:(dir name) () else P.make_ctx () in
  let acc =
    { attempted = 0; failed = 0; why = []; commits = 0; new_nodes = 0; links = 0; built = 0;
      kept = 0; wal_commit_bytes = 0; wal_bytes = 0; wal_compacted = 0;
      ingest_bytes = 0; commit_ctx_s = []; commit_twin_s = []; dispatch_s = [];
      traced_commit_s = []; untraced_commit_s = [] }
  in
  let ctx = ctx_of "traced" in
  let env =
    { w; ctx; untraced = ctx_of "untraced"; persists;
      wal_dir = (match ctx.P.data_dir with Some d -> d | None -> dir "twin") }
  in
  Span.reset ();
  T.set_level T.Counters;
  Fun.protect
    ~finally:(fun () -> T.set_level T.Off)
    (fun () -> Array.iteri (replay_session acc env o) sessions);
  let agg = Span.aggregate in
  let per_call name =
    let a = agg name in
    if a.Span.calls = 0 then 0. else a.Span.total_s /. float_of_int a.Span.calls
  in
  let commits = float_of_int (max 1 acc.commits) in
  let ms x = x *. 1000. in
  let session_commit = mean acc.commit_ctx_s in
  let persisted, unpersisted =
    if persists then (session_commit, mean acc.commit_twin_s)
    else (mean acc.commit_twin_s, session_commit)
  in
  let sync = persisted -. unpersisted in
  (* The sync's own children: snapshot and export at commit. *)
  let sync_children =
    List.fold_left
      (fun a (sp : Span.t) ->
        if sp.Span.parent = Some "session.sync" then a +. (sp.Span.t1 -. sp.Span.t0) else a)
      0. !Span.spans
    /. commits
  in
  let wal_sync = sync -. sync_children in
  let in_step name = if w = Gen.Xml_ingest then (agg name).Span.total_s else 0. in
  let step_self =
    ((agg "orchestrator.step").Span.self_s -. in_step "ingest.parse" -. in_step "diff.diff")
    /. commits
  in
  let observe = (agg "strategy.observe").Span.total_s /. commits in
  let in_commit =
    step_self +. observe
    +. ((in_step "ingest.parse" +. in_step "diff.diff") /. commits)
    +. (if persists then sync_children +. wal_sync else 0.)
  in
  (* What the client waited beyond the daemon's handling and the codec,
     per request of the daemon phase. *)
  let io =
    let n = ref 0 and waited = ref 0. in
    Array.iter
      (fun (r : Drive.replies) ->
        Array.iteri
          (fun j l ->
            incr n;
            waited := !waited +. l -. r.Drive.codec_s.(j))
          r.Drive.lat_s)
      o.Drive.o_replies;
    (!waited -. o.Drive.o_handled_s) /. float_of_int !n
  in
  let median l = Stat.median (Array.of_list l) in
  let ingest = agg "ingest.parse" in
  let m name unit v = (name, { Schema.value = v; unit }) in
  let metrics =
    [ m "json.decode_ms" "ms" (ms (per_call "json.decode"));
      m "json.encode_ms" "ms" (ms (per_call "json.encode"));
      m "protocol.dispatch_ms" "ms" (ms (mean acc.dispatch_s));
      m "server.io_ms" "ms" (ms io);
      m "session.commit_ms" "ms" (ms session_commit);
      m "session.sync_ms" "ms" (ms sync);
      m "orchestrator.step_ms" "ms" (ms step_self);
      m "orchestrator.new_nodes" "count" (float_of_int acc.new_nodes);
      m "strategy.observe_ms" "ms" (ms observe);
      m "strategy.snapshot_ms" "ms" (ms (per_call "strategy.snapshot"));
      m "strategy.links" "count" (float_of_int acc.links);
      m "prov_export.to_store_ms" "ms" (ms (per_call "prov_export.to_store"));
      m "prov_export.triples_built" "count" (float_of_int acc.built);
      m "prov_export.useful_ratio" "ratio" (float_of_int acc.kept /. float_of_int (max 1 acc.built));
      m "reachability.build_ms" "ms" (ms (per_call "reachability.build"));
      m "reachability.query_ms" "ms" (ms (per_call "reachability.query"));
      m "wal.sync_ms" "ms" (ms wal_sync);
      m "wal.bytes_per_commit" "B" (float_of_int acc.wal_commit_bytes /. commits);
      m "wal.write_amp" "ratio" (float_of_int acc.wal_bytes /. float_of_int (max 1 acc.wal_compacted));
      m "wal.replay_ms" "ms" (ms (per_call "wal.replay"));
      m "sparql.run_ms" "ms" (ms (per_call "sparql.run"));
      m "turtle.render_ms" "ms" (ms (per_call "turtle.render"));
      m "ingest.parse_ms" "ms" (ms (per_call "ingest.parse"));
      m "ingest.mb_s" "MB/s" (float_of_int acc.ingest_bytes /. 1e6 /. ingest.Span.total_s);
      m "diff.diff_ms" "ms" (ms (per_call "diff.diff"));
      m "trace.coverage" "ratio" (in_commit /. session_commit);
      m "trace.overhead" "ratio"
        (median acc.traced_commit_s /. median acc.untraced_commit_s -. 1.) ]
  in
  { metrics; attempted = acc.attempted; failed = acc.failed; why = acc.why }
