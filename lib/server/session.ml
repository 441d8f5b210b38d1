open Weblab_xml
open Weblab_workflow
open Weblab_prov
module Rdf = Weblab_rdf
module M = Weblab_obs.Metrics

(* Latency distributions per session-level operation, process-wide: a
   daemon hosting many sessions folds them all into one family per verb,
   which is what the scrape wants (per-session splits would explode
   cardinality).  Commit covers the orchestrator step plus WAL sync;
   [why]/[impact] time one traversal of the graph, and [sparql]/[turtle]
   include the export catch-up a cold store needs. *)
let h_commit = M.hist "session.commit"
let h_why = M.hist "session.query.why"
let h_impact = M.hist "session.query.impact"
let h_sparql = M.hist "session.query.sparql"
let h_turtle = M.hist "session.query.turtle"

(* Point-in-time sizes of the most recently committed session, sampled
   at commit/sync boundaries (last-writer-wins across sessions). *)
let g_doc_nodes = M.gauge "serve.session.doc_nodes"
let g_store_triples = M.gauge "serve.session.store_triples"

type budgets = {
  policy : Orchestrator.policy;
  max_commits : int option;
}

let default_budgets =
  { policy = { Orchestrator.default_policy with on_failure = `Skip };
    max_commits = None }

(* The session's export store only grows: each sync appends the steps
   committed since the cursor ({!Prov_export.extend}).  A persisted
   session syncs at every commit and logs exactly the appended triples;
   an unpersisted one catches up when a query needs the store.  Every
   read of the store, not only the catch-up, must hold [lock]: the
   store's first probe after a catch-up merges its tail. *)
type export = {
  x_store : Rdf.Triple_store.t;
  mutable x_cursor : Prov_export.cursor;
}

type persist = {
  pw : Rdf.Wal.writer;
  p_path : string;
}

type live = {
  orch : Orchestrator.session;
  fused : Strategy_fused.state;
  budgets : budgets;
  persist : persist option;
  export : export;
}

(* A restored session serves queries straight off the replayed triple
   store; there is no orchestrator or backend state to resume, so
   commits are refused ([Restored_read_only]).  Its graph is decoded
   from the store once, on the first query that needs it. *)
type restored = {
  r_store : Rdf.Triple_store.t;
  r_graph : Prov_graph.t Lazy.t;
  r_next_time : int;
}

type mode =
  | Live of live
  | Restored of restored

type t = {
  sid : string;
  bname : string;
  mode : mode;
  lock : Mutex.t;
  mutable commits : int;  (* committed calls *)
  mutable failed : int;  (* burned timestamps *)
  mutable closed : bool;
}

let id t = t.sid
let backend_name t = t.bname
let is_restored t = match t.mode with Restored _ -> true | Live _ -> false

let wal_path t =
  match t.mode with
  | Live { persist = Some p; _ } -> Some p.p_path
  | _ -> None

let with_lock t f = Mutex.protect t.lock f

(* ----- queries ----- *)

(* Fused's snapshot labels only the trace entries recorded since the
   last one and returns its live graph, so queries need no cache. *)
let graph t =
  match t.mode with
  | Live l ->
    Strategy_fused.snapshot l.fused ~doc:(Orchestrator.session_doc l.orch)
      ~trace:(Orchestrator.session_trace l.orch)
  | Restored r -> Lazy.force r.r_graph

(* Append what the graph and trace gained since the last catch-up; a
   persisted session stages the appended triples in its WAL. *)
let catch_up t l =
  let x = l.export in
  let log = Option.map (fun p -> Rdf.Wal.log_triple p.pw) l.persist in
  x.x_cursor <-
    Prov_export.extend ?log ~trace:(Orchestrator.session_trace l.orch)
      x.x_store (graph t) x.x_cursor

let store t =
  match t.mode with
  | Live l ->
    catch_up t l;
    l.export.x_store
  | Restored r -> r.r_store

let trace t =
  match t.mode with
  | Live l -> Some (Orchestrator.session_trace l.orch)
  | Restored _ -> None

(* Two queries per commit do not pay for a closure: a traversal over the
   graph's adjacency reaches only the lineage asked about. *)
let why t uri =
  M.time h_why (fun () -> Query.depends_on_transitive (graph t) uri)

let impact t uri =
  M.time h_impact (fun () -> Query.influences_transitive (graph t) uri)

let sparql t q = M.time h_sparql (fun () -> Rdf.Sparql.run (store t) q)

let next_time t =
  match t.mode with
  | Live l -> Orchestrator.next_time l.orch
  | Restored r -> r.r_next_time

(* A restored session's store is the replayed log, which holds the live
   store's triple sequence verbatim — so its Turtle is byte-identical to
   what the live session served (persist-smoke pins this). *)
let turtle t = M.time h_turtle (fun () -> Rdf.Turtle.to_turtle (store t))

(* ----- WAL sync ----- *)

(* What a restore reports: backend name and commit counters. *)
let meta t l =
  [ ("backend", t.bname); ("commits", string_of_int t.commits);
    ("failed", string_of_int t.failed);
    ("next_time", string_of_int (Orchestrator.next_time l.orch)) ]

(* Append the steps committed since the last sync to the store and the
   log, then seal them, with the metadata, under one fsynced commit
   marker. *)
let sync_wal t l =
  match l.persist with
  | None -> ()
  | Some p ->
    catch_up t l;
    let size = Rdf.Triple_store.size l.export.x_store in
    List.iter (fun (key, value) -> Rdf.Wal.log_meta p.pw ~key ~value) (meta t l);
    Rdf.Wal.commit p.pw ~store_size:size;
    M.set g_store_triples size

(* ----- constructors ----- *)

(* [~backend] is kept for the benchmark's driver, which passes it. *)
let create ~id ~(backend : Strategy.kind) ?(budgets = default_budgets)
    ?wal_path ~doc rb =
  if backend <> `Fused then
    invalid_arg
      ("Session.create: sessions serve fused only, not "
      ^ Strategy.kind_to_string backend);
  let orch = Orchestrator.start ~policy:budgets.policy doc in
  (* Width 1: a daemon hosts many sessions, each on its caller's domain. *)
  let fused = Strategy_fused.init ~jobs:1 ~doc rb in
  let persist =
    Option.map
      (fun path -> { pw = Rdf.Wal.open_writer path; p_path = path })
      wal_path
  in
  let export =
    { x_store = Rdf.Triple_store.create (); x_cursor = Prov_export.start }
  in
  let l = { orch; fused; budgets; persist; export } in
  let t =
    { sid = id; bname = Strategy_fused.name; mode = Live l;
      lock = Mutex.create (); commits = 0; failed = 0; closed = false }
  in
  (* Make the empty session durable immediately: a crash right after
     [open] restores an open (if empty) session, not a missing one. *)
  sync_wal t l;
  t

let restore ~id ~wal_path =
  let st, rp = Rdf.Wal.replay wal_path in
  let meta k = List.assoc_opt k rp.Rdf.Wal.rp_meta in
  let int_meta k =
    match meta k with
    | Some s -> ( match int_of_string_opt s with Some v -> v | None -> 0)
    | None -> 0
  in
  let bname =
    match meta "backend" with Some b -> b | None -> "restored"
  in
  ( { sid = id; bname;
      mode =
        Restored
          { r_store = st; r_graph = lazy (Prov_export.of_store st);
            r_next_time = int_meta "next_time" };
      lock = Mutex.create (); commits = int_meta "commits";
      failed = int_meta "failed"; closed = false },
    rp )

(* A client-supplied next document state, committed through the
   streaming blackbox route: the body is parsed straight into a private
   arena by [Ingest] inside the service thunk — the daemon never
   serializes the live document as a pseudo-input, and the request body
   is materialized exactly once.  Malformed XML raises inside the thunk
   and fails the call (never the session). *)
let client_xml_service ?(name = "ClientXml") xml =
  Service.blackbox_doc ~name ~description:"client-supplied document state"
    (fun () -> fst (Ingest.of_string xml))

(* ----- commit ----- *)

type commit_ok = {
  time : int;
  attempts : int;
  new_nodes : int;
  promoted : int;
}

type commit_error =
  | Budget_exhausted of string
  | Call_failed of { reason : string; attempts : int; time : int }
  | Session_closed
  | Restored_read_only

let commit t svc =
  if t.closed then Error Session_closed
  else
    match t.mode with
    | Restored _ -> Error Restored_read_only
    | Live l -> (
      let attempted = t.commits + t.failed in
      match l.budgets.max_commits with
      | Some m when attempted >= m ->
        Error
          (Budget_exhausted
             (Printf.sprintf "session commit budget exhausted (%d of %d used)"
                attempted m))
      | _ ->
        M.time h_commit (fun () ->
            let time = Orchestrator.next_time l.orch in
            let on_step call before after delta =
              Strategy_fused.observe l.fused ~call ~before ~after ~delta
            in
            let sample_doc () =
              if Weblab_obs.Telemetry.enabled () then
                M.set g_doc_nodes (Tree.size (Orchestrator.session_doc l.orch))
            in
            match Orchestrator.step ~on_step l.orch svc with
            | Orchestrator.Committed { delta; attempts } ->
              t.commits <- t.commits + 1;
              sync_wal t l;
              sample_doc ();
              Ok
                { time; attempts;
                  new_nodes = List.length delta.Orchestrator.new_nodes;
                  promoted = List.length delta.Orchestrator.promoted }
            | Orchestrator.Step_failed { reason; attempts; _ } ->
              (* The orchestrator already rolled the arena back and burned
                 the timestamp; the backend observed nothing, so its
                 graph stands.  The failed call still shows up in the
                 export (as an invalidated activity), so the WAL syncs
                 here too. *)
              t.failed <- t.failed + 1;
              sync_wal t l;
              sample_doc ();
              Error (Call_failed { reason; attempts; time })))

(* ----- stats ----- *)

type stats = {
  st_id : string;
  st_backend : string;
  st_next_time : int;
  st_commits : int;
  st_failed : int;
  st_doc_nodes : int;
  st_graph_size : int;
  st_links : int;
  st_closed : bool;
  st_restored : bool;
  st_store : Rdf.Triple_store.store_stats;
}

let stats t =
  let g = graph t in
  { st_id = t.sid; st_backend = t.bname; st_next_time = next_time t;
    st_commits = t.commits; st_failed = t.failed;
    st_doc_nodes =
      (match t.mode with
      | Live l -> Tree.size (Orchestrator.session_doc l.orch)
      | Restored _ -> 0);
    st_graph_size = Prov_graph.label_count g;
    st_links = Prov_graph.size g; st_closed = t.closed;
    st_restored = is_restored t; st_store = Rdf.Triple_store.stats (store t) }

(* ----- close ----- *)

let close t =
  (match t.mode with
  | Live l when not t.closed ->
    (* [commit] is refused from here on, so queries keep answering over
       the finalized graph. *)
    ignore
      (Strategy_fused.finalize l.fused ~doc:(Orchestrator.session_doc l.orch)
         ~trace:(Orchestrator.session_trace l.orch));
    (* Sync whatever the finalize labeled, then compact the log to one
       reset + dump of the store so replay cost is proportional to live
       size. *)
    Option.iter
      (fun p ->
        sync_wal t l;
        Rdf.Wal.compact_to p.p_path ~meta:(meta t l) l.export.x_store;
        Rdf.Wal.close_writer p.pw)
      l.persist
  | Live _ | Restored _ ->
    (* A restored session keeps its WAL: it can be restored again. *)
    ());
  t.closed <- true;
  graph t
