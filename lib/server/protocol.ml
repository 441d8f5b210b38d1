open Weblab_workflow
open Weblab_prov
module J = Json
module T = Weblab_obs.Telemetry
module M = Weblab_obs.Metrics

(* Slow-query log: requests whose wall time crosses the threshold append
   one JSON line each.  The channel is shared by every connection thread,
   hence the lock; a flush per record keeps the tail readable while the
   daemon runs (slow queries are rare by definition, so the flush cost
   is irrelevant). *)
type slow_log = {
  sl_oc : out_channel;
  sl_lock : Mutex.t;
  sl_threshold_us : float;
}

type ctx = {
  registry : Registry.t;
  rulebook : Strategy.rulebook;
  default_backend : Strategy.kind;
      (* always [`Fused]; kept for the benchmark's driver *)
  data_dir : string option;
      (* when set, sessions persist a WAL under it and boot restores *)
  slow : slow_log option;
}

let make_ctx ?max_sessions ?data_dir ?slow_log_path ?(slow_ms = 100.)
    () =
  let rulebook =
    List.map
      (fun (e : Weblab_services.Catalog.entry) ->
        ( Service.name e.Weblab_services.Catalog.service,
          List.map Rule_parser.parse e.Weblab_services.Catalog.rules ))
      Weblab_services.Catalog.entries
  in
  let slow =
    Option.map
      (fun path ->
        { sl_oc = open_out_gen [ Open_append; Open_creat ] 0o644 path;
          sl_lock = Mutex.create (); sl_threshold_us = slow_ms *. 1000. })
      slow_log_path
  in
  { registry = Registry.create ?max_sessions (); rulebook;
    default_backend = `Fused; data_dir; slow }

(* ----- WAL file naming -----

   Session ids are client-chosen strings; percent-encode anything that
   is not filename-safe so ids map 1:1 onto flat "<enc>.wal" files and
   the directory scan can decode them back. *)

let enc_sid sid =
  let buf = Buffer.create (String.length sid) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' ->
        Buffer.add_char buf c
      | c -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
    sid;
  Buffer.contents buf

let dec_sid enc =
  let buf = Buffer.create (String.length enc) in
  let n = String.length enc in
  let rec go i =
    if i < n then
      if enc.[i] = '%' && i + 2 < n then (
        match int_of_string_opt ("0x" ^ String.sub enc (i + 1) 2) with
        | Some code ->
          Buffer.add_char buf (Char.chr (code land 0xff));
          go (i + 3)
        | None ->
          Buffer.add_char buf enc.[i];
          go (i + 1))
      else begin
        Buffer.add_char buf enc.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let wal_file data_dir sid = Filename.concat data_dir (enc_sid sid ^ ".wal")

(* Restore every "*.wal" in the data directory into a read-only session;
   called once at daemon boot, before the listener accepts.  Returns the
   restored (id, replay stats) pairs. *)
let restore_sessions ctx =
  match ctx.data_dir with
  | None -> []
  | Some dir when Sys.file_exists dir && Sys.is_directory dir ->
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.filter_map (fun f ->
           if Filename.check_suffix f ".wal" then
             let sid = dec_sid (Filename.chop_suffix f ".wal") in
             let wal_path = Filename.concat dir f in
             let result = ref None in
             (match
                Registry.add ctx.registry ~id:(Some sid) (fun ~id ->
                    let sess, rp = Session.restore ~id ~wal_path in
                    result := Some rp;
                    sess)
              with
             | Ok _ -> Option.map (fun rp -> (sid, rp)) !result
             | Error _ -> None)
           else None)
  | Some _ -> []

(* ----- responses ----- *)

(* The echoed request id, if any — first member of every response. *)
let id_fields req =
  match J.member "id" req with Some v -> [ ("id", v) ] | None -> []

let ok req fields = J.Obj (id_fields req @ (("ok", J.Bool true) :: fields))

let err ?(extra = []) req code msg =
  J.Obj
    (id_fields req
    @ ("ok", J.Bool false) :: ("error", J.Str code) :: ("message", J.Str msg)
      :: extra)

(* A handler either produces response fields or a protocol error. *)
exception Reject of string * string * (string * J.t) list
(* code, message, extra fields *)

let reject ?(extra = []) code msg = raise (Reject (code, msg, extra))

let opt_default d = function Some v -> v | None -> d

(* ----- field parsing ----- *)

let required_str req field =
  match J.str_member field req with
  | Some s -> s
  | None -> reject "bad_request" (Printf.sprintf "missing string field %S" field)

let session_of ctx req =
  let sid = required_str req "session" in
  match Registry.find ctx.registry sid with
  | Some s -> s
  | None -> reject "unknown_session" (Printf.sprintf "no session %S" sid)

let budgets_of req =
  match J.member "budgets" req with
  | None -> Session.default_budgets
  | Some b ->
    let d = Session.default_budgets in
    { Session.policy =
        { d.Session.policy with
          retries = opt_default 0 (J.int_member "retries" b);
          backoff_ms = opt_default 0. (J.float_member "backoff_ms" b);
          max_new_nodes = J.int_member "max_new_nodes" b;
          max_call_s = J.float_member "max_call_s" b };
      max_commits = J.int_member "max_commits" b }

(* ----- open ----- *)

(* Unknown fields are ignored: an older client's ["backend"] or
   ["jobs"] still gets Fused at width 1, with the same answers. *)
let v_open ctx req =
  let doc =
    match opt_default "standard" (J.str_member "scenario" req) with
    | "empty" -> Orchestrator.initial_document ()
    | "standard" ->
      let units = opt_default 3 (J.int_member "units" req) in
      let seed = opt_default 42 (J.int_member "seed" req) in
      Weblab_services.Workload.make_document ~units ~seed ()
    | s -> reject "bad_request" (Printf.sprintf "unknown scenario %S" s)
  in
  let budgets = budgets_of req in
  (* Persistence defaults on when the daemon has a data dir; the request
     can opt out per session with {"persist": false}. *)
  let persist =
    opt_default (Option.is_some ctx.data_dir) (J.bool_member "persist" req)
  in
  let wal_dir =
    match ctx.data_dir with
    | Some dir when persist -> Some dir
    | _ ->
      if persist && Option.is_some (J.bool_member "persist" req) then
        reject "bad_request" "persist requested but the daemon has no --data-dir"
      else None
  in
  match
    Registry.add ctx.registry ~id:(J.str_member "session" req) (fun ~id ->
        let wal_path = Option.map (fun dir -> wal_file dir id) wal_dir in
        Session.create ~id ~backend:`Fused ~budgets ?wal_path ~doc ctx.rulebook)
  with
  | Ok sess ->
    ok req
      [ ("session", J.Str (Session.id sess));
        ("backend", J.Str (Session.backend_name sess));
        ("next_time", J.Int 1);
        ("persisted", J.Bool (Option.is_some (Session.wal_path sess))) ]
  | Error (Registry.Admission_rejected msg) -> reject "admission_rejected" msg
  | Error (Registry.Already_open id) ->
    reject "already_open" (Printf.sprintf "session %S already exists" id)

(* ----- commit ----- *)

let fault_of req =
  match J.str_member "fault" req with
  | None -> None
  | Some s ->
    (match
       List.find_opt
         (fun f -> String.equal (Weblab_services.Faulty.fault_name f) s)
         Weblab_services.Faulty.all_faults
     with
    | Some f -> Some f
    | None -> reject "bad_request" (Printf.sprintf "unknown fault %S" s))

let service_of req =
  match (J.str_member "service" req, J.str_member "xml" req) with
  | Some name, None ->
    (match Weblab_services.Catalog.find name with
    | Some e -> e.Weblab_services.Catalog.service
    | None ->
      reject "unknown_service"
        (Printf.sprintf "unknown service %S (%s)" name
           (String.concat "|" Weblab_services.Catalog.service_names)))
  | None, Some xml ->
    (* A client-supplied next document state: the streaming route — the
       body's parser events are grafted onto the live arena in one pass
       ({!Weblab_xml.Diff.graft}), with no second arena and no
       serialization of the current state.  Malformed XML fails the call
       (total parse-error rendering), never the session. *)
    let name = opt_default "ClientXml" (J.str_member "name" req) in
    Session.client_xml_service ~name xml
  | Some _, Some _ | None, None ->
    reject "bad_request" "commit takes exactly one of \"service\" or \"xml\""

let v_commit ctx req =
  let sess = session_of ctx req in
  let svc = service_of req in
  let svc =
    match fault_of req with
    | Some f -> Weblab_services.Faulty.with_fault ~stall_s:0.01 f svc
    | None -> svc
  in
  match Session.with_lock sess (fun () -> Session.commit sess svc) with
  | Ok { Session.time; attempts; new_nodes; promoted } ->
    ok req
      [ ("time", J.Int time); ("attempts", J.Int attempts);
        ("new_nodes", J.Int new_nodes); ("promoted", J.Int promoted) ]
  | Error (Session.Budget_exhausted msg) -> reject "budget_exceeded" msg
  | Error (Session.Call_failed { reason; attempts; time }) ->
    reject "commit_failed" reason
      ~extra:[ ("attempts", J.Int attempts); ("time", J.Int time) ]
  | Error Session.Session_closed ->
    reject "session_closed" "session is closed"
  | Error Session.Restored_read_only ->
    reject "read_only"
      "session was restored from a WAL and is query-only; open a new \
       session to commit"

(* ----- query ----- *)

let v_query ctx req =
  let sess = session_of ctx req in
  let kind = required_str req "kind" in
  Session.with_lock sess (fun () ->
      match kind with
      | "why" | "impact" ->
        let uri = required_str req "uri" in
        let uris =
          if String.equal kind "why" then Session.why sess uri
          else Session.impact sess uri
        in
        ok req [ ("uris", J.List (List.map (fun u -> J.Str u) uris)) ]
      | "sparql" ->
        let q = required_str req "query" in
        (match Session.sparql sess q with
        | tbl ->
          let cols = Weblab_relalg.Table.columns tbl in
          let rows =
            List.map
              (fun row ->
                J.List
                  (List.map
                     (fun c ->
                       J.Str
                         (Weblab_relalg.Value.to_string
                            (Weblab_relalg.Table.get tbl row c)))
                     cols))
              (Weblab_relalg.Table.rows tbl)
          in
          ok req
            [ ("columns", J.List (List.map (fun c -> J.Str c) cols));
              ("rows", J.List rows) ]
        | exception Weblab_rdf.Sparql.Error msg -> reject "query_error" msg)
      | "turtle" -> ok req [ ("turtle", J.Str (Session.turtle sess)) ]
      | k -> reject "bad_request" (Printf.sprintf "unknown query kind %S" k))

(* ----- stats ----- *)

let session_stats_fields (s : Session.stats) =
  [ ("session", J.Str s.Session.st_id);
    ("backend", J.Str s.Session.st_backend);
    ("next_time", J.Int s.Session.st_next_time);
    ("commits", J.Int s.Session.st_commits);
    ("failed", J.Int s.Session.st_failed);
    ("doc_nodes", J.Int s.Session.st_doc_nodes);
    ("resources", J.Int s.Session.st_graph_size);
    ("links", J.Int s.Session.st_links);
    ("closed", J.Bool s.Session.st_closed);
    ("restored", J.Bool s.Session.st_restored);
    ("store",
     J.Obj
       [ ("triples", J.Int s.Session.st_store.Weblab_rdf.Triple_store.st_triples);
         ("terms", J.Int s.Session.st_store.Weblab_rdf.Triple_store.st_terms);
         ("base", J.Int s.Session.st_store.Weblab_rdf.Triple_store.st_base);
         ("tail", J.Int s.Session.st_store.Weblab_rdf.Triple_store.st_tail);
         ("merges", J.Int s.Session.st_store.Weblab_rdf.Triple_store.st_merges)
       ]) ]

let v_stats ctx req =
  match J.str_member "session" req with
  | Some _ ->
    let sess = session_of ctx req in
    let s = Session.with_lock sess (fun () -> Session.stats sess) in
    ok req (session_stats_fields s)
  | None ->
    let ids = Registry.ids ctx.registry in
    let restored =
      List.fold_left
        (fun acc sid ->
          match Registry.find ctx.registry sid with
          | Some s when Session.is_restored s -> acc + 1
          | Some _ | None -> acc)
        0 ids
    in
    ok req
      [ ("live", J.Int (Registry.live ctx.registry));
        ("max_sessions", J.Int (Registry.max_sessions ctx.registry));
        ("restored", J.Int restored);
        ("sessions", J.List (List.map (fun s -> J.Str s) ids)) ]

(* ----- close ----- *)

let v_close ctx req =
  let sid = required_str req "session" in
  match Registry.remove ctx.registry sid with
  | None -> reject "unknown_session" (Printf.sprintf "no session %S" sid)
  | Some sess ->
    Session.with_lock sess (fun () ->
        ignore (Session.close sess);
        let s = Session.stats sess in
        let base =
          [ ("commits", J.Int s.Session.st_commits);
            ("failed", J.Int s.Session.st_failed);
            ("links", J.Int s.Session.st_links) ]
        in
        let extra =
          if opt_default false (J.bool_member "turtle" req) then
            [ ("turtle", J.Str (Session.turtle sess)) ]
          else []
        in
        ok req (base @ extra))

(* ----- metrics ----- *)

let level_name = function
  | T.Off -> "off"
  | T.Counters -> "counters"
  | T.Full -> "full"

(* The introspection verb: a structured {!Metrics.snapshot} (plain
   [metrics]), or one request's spans pulled from the ring by the id
   that stamped them ([{"trace": rid}]). *)
let v_metrics _ctx req =
  match J.str_member "trace" req with
  | Some rid ->
    let spans =
      T.events ()
      |> List.filter (fun e ->
             match List.assoc_opt "req" e.T.e_args with
             | Some r -> String.equal r rid
             | None -> false)
      |> List.map (fun e ->
             J.Obj
               [ ("name", J.Str e.T.e_name); ("cat", J.Str e.T.e_cat);
                 ("worker", J.Int e.T.e_worker); ("ts_us", J.Float e.T.e_ts);
                 ("dur_us", J.Float e.T.e_dur);
                 ("args",
                  J.Obj (List.map (fun (k, v) -> (k, J.Str v)) e.T.e_args)) ])
    in
    ok req [ ("trace", J.Str rid); ("spans", J.List spans) ]
  | None ->
    let sn = M.snapshot () in
    let hist_obj hv =
      J.Obj
        [ ("count", J.Int hv.M.hv_count); ("sum_us", J.Int hv.M.hv_sum_us);
          ("max_us", J.Int hv.M.hv_max_us); ("p50_us", J.Int hv.M.hv_p50_us);
          ("p90_us", J.Int hv.M.hv_p90_us); ("p99_us", J.Int hv.M.hv_p99_us) ]
    in
    ok req
      [ ("uptime_us", J.Float sn.M.sn_uptime_us);
        ("level", J.Str (level_name (T.level ())));
        ("counters",
         J.Obj (List.map (fun (k, v) -> (k, J.Int v)) sn.M.sn_counters));
        ("gauges",
         J.Obj (List.map (fun (k, v) -> (k, J.Int v)) sn.M.sn_gauges));
        ("histograms",
         J.Obj (List.map (fun hv -> (hv.M.hv_name, hist_obj hv)) sn.M.sn_hists));
        ("spans",
         J.Obj
           [ ("buffered", J.Int sn.M.sn_spans_buffered);
             ("dropped", J.Int sn.M.sn_spans_dropped) ]) ]

(* ----- dispatch ----- *)

let verb_counter verb = T.counter ("serve.verb." ^ verb)
let verb_hist verb = M.hist ("serve.verb." ^ verb)
let c_slow = T.counter "serve.slow_queries"

(* The request id every span emitted while handling this request is
   stamped with: the client's ["id"] when it is a string or an integer,
   a generated "r<N>" otherwise.  (The response echo is untouched —
   echoing only what the client sent is part of the protocol.) *)
let req_seq = Atomic.make 1

let request_id req =
  match J.member "id" req with
  | Some (J.Str s) -> s
  | Some (J.Int n) -> string_of_int n
  | Some _ | None -> Printf.sprintf "r%d" (Atomic.fetch_and_add req_seq 1)

(* Cardinalities worth keeping in a slow-query record, pulled from the
   response itself so no verb needs extra plumbing: delta sizes from
   commit, result sizes from query, census from stats. *)
let slow_detail resp =
  match resp with
  | J.Obj fields ->
    List.filter_map
      (fun (k, v) ->
        match (k, v) with
        | ("new_nodes" | "promoted" | "time" | "attempts" | "live"), J.Int n ->
          Some (k, n)
        | ("uris" | "rows" | "sessions"), J.List l -> Some (k, List.length l)
        | "turtle", J.Str s -> Some ("turtle_bytes", String.length s)
        | _ -> None)
      fields
  | _ -> []

let log_slow ctx ~verb ~rid ~dur_us req resp =
  match ctx.slow with
  | Some sl when dur_us >= sl.sl_threshold_us ->
    T.incr c_slow;
    let session =
      match J.str_member "session" resp with
      | Some s -> s
      | None -> opt_default "" (J.str_member "session" req)
    in
    let line =
      Weblab_obs.Sinks.slow_query_line ~verb ~session ~req:rid ~dur_us
        ~ok:(opt_default false (J.bool_member "ok" resp))
        ~detail:(slow_detail resp)
    in
    Mutex.protect sl.sl_lock (fun () ->
        output_string sl.sl_oc line;
        output_char sl.sl_oc '\n';
        flush sl.sl_oc)
  | Some _ | None -> ()

let handle ctx req =
  match J.str_member "verb" req with
  | None -> err req "bad_request" "missing string field \"verb\""
  | Some verb ->
    let dispatch f =
      match f ctx req with
      | resp -> resp
      | exception Reject (code, msg, extra) -> err ~extra req code msg
      | exception e ->
        (* The backstop: an unexpected exception is confined to this
           request; the session registry stays intact. *)
        err req "internal_error" (Printexc.to_string e)
    in
    let run f =
      (* Off is one atomic load and the bare dispatch — no id draw, no
         clock read, no histogram. *)
      if not (T.enabled ()) then dispatch f
      else begin
        T.incr (verb_counter verb);
        let rid = request_id req in
        let t0 = Unix.gettimeofday () in
        let resp =
          T.with_request rid (fun () ->
              T.span ~cat:"serve" ("serve." ^ verb) (fun () -> dispatch f))
        in
        let dur_us = (Unix.gettimeofday () -. t0) *. 1e6 in
        M.observe_us (verb_hist verb) dur_us;
        log_slow ctx ~verb ~rid ~dur_us req resp;
        resp
      end
    in
    (match verb with
    | "open" -> run v_open
    | "commit" -> run v_commit
    | "query" -> run v_query
    | "stats" -> run v_stats
    | "metrics" -> run v_metrics
    | "close" -> run v_close
    | v -> err req "bad_request" (Printf.sprintf "unknown verb %S" v))

let handle_line ctx line =
  let resp =
    match J.parse_opt line with
    | Ok req -> handle ctx req
    | Error msg -> err (J.Obj []) "parse_error" msg
  in
  J.to_string resp
