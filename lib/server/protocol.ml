open Weblab_workflow
open Weblab_prov
module J = Json
module Sink = Weblab_rdf.Sink
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

(* Restore every "*.wal" in the data directory into a read-only session,
   whatever the session cap: a log left unrestored would be truncated by
   the next [open] of its id.  Called once at daemon boot, before the
   listener accepts.  Returns the restored (id, replay stats) pairs. *)
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
                Registry.add ~capped:false ctx.registry ~id:(Some sid)
                  (fun ~id ->
                    let sess, rp = Session.restore ~id ~wal_path in
                    result := Some rp;
                    sess)
              with
             | Ok _ -> Option.map (fun rp -> (sid, rp)) !result
             | Error _ -> None)
           else None)
  | Some _ -> []

(* ----- replies -----

   A reply is written as it is produced, through one JSON writer: a
   {!Weblab_rdf.Sink.t} that drains 64 KiB at a time into the connection
   (or a [Buffer.t] for {!handle_line}).  Members are the echoed id, ["ok"],
   then the verb's own, in order.  Small members are [J.t] values,
   encoded as they always were; SPARQL rows are written cell by cell from
   the query's id rows, and Turtle goes from its renderer's sink through
   the JSON escaper into the reply, so neither exists as one string.

   A verb answers by calling its [respond] argument once, under whatever
   lock its data needs.  Everything that can fail — lookups, parsing,
   evaluation — runs before that call; writing a reply is total. *)

type member =
  | Json of J.t
  | Rows of Weblab_rdf.Sparql.rows  (** a SELECT's rows, cell by cell *)
  | Text of (Sink.t -> unit)
      (** a string rendered into a sink, escaped as it drains *)

(* What the slow-query log keeps of a written reply: its ["ok"], its
   ["session"] member and its cardinalities. *)
type summary = {
  sm_ok : bool;
  sm_session : string option;
  sm_detail : (string * int) list;
}

(* Only [respond] makes one: a verb that returns has answered. *)
type sent = Sent of summary

let json fields = List.map (fun (k, v) -> (k, Json v)) fields

(* Cardinalities worth keeping in a slow-query record: delta sizes from
   commit, result sizes from query, census from stats. *)
let json_detail k v =
  match (k, v) with
  | ("new_nodes" | "promoted" | "time" | "attempts" | "live"), J.Int n ->
    Some (k, n)
  | ("uris" | "sessions"), J.List l -> Some (k, List.length l)
  | _ -> None

let write_rows w rows =
  let module Q = Weblab_rdf.Sparql in
  let width = List.length (Q.columns rows) in
  Sink.add_char w '[';
  for r = 0 to Q.row_count rows - 1 do
    if r > 0 then Sink.add_char w ',';
    Sink.add_char w '[';
    for c = 0 to width - 1 do
      if c > 0 then Sink.add_char w ',';
      J.write_string w (Q.cell rows r c)
    done;
    Sink.add_char w ']'
  done;
  Sink.add_char w ']'

(* A string member rendered into a stage of the writer's size whose
   drained pieces are escaped into the writer; the text's length. *)
let write_text w render =
  let text = Sink.create ~size:(Sink.size w) (J.write_escaped w) in
  Sink.add_char w '"';
  render text;
  Sink.flush text;
  Sink.add_char w '"';
  Sink.length text

let write_reply w req ~ok members =
  Sink.add_char w '{';
  (match J.member "id" req with
  | Some v ->
    Sink.add_string w "\"id\":";
    J.write w v;
    Sink.add_char w ','
  | None -> ());
  Sink.add_string w (if ok then "\"ok\":true" else "\"ok\":false");
  let detail =
    List.fold_left
      (fun acc (k, m) ->
        Sink.add_char w ',';
        J.write_string w k;
        Sink.add_char w ':';
        let d =
          match m with
          | Json v ->
            J.write w v;
            json_detail k v
          | Rows rows ->
            write_rows w rows;
            Some ("rows", Weblab_rdf.Sparql.row_count rows)
          | Text render ->
            let n = write_text w render in
            if String.equal k "turtle" then Some ("turtle_bytes", n) else None
        in
        match d with Some d -> d :: acc | None -> acc)
      [] members
  in
  Sink.add_char w '}';
  { sm_ok = ok;
    sm_session =
      List.find_map
        (function "session", Json (J.Str s) -> Some s | _ -> None)
        members;
    sm_detail = List.rev detail }

let write_error w req code msg extra =
  write_reply w req ~ok:false
    (("error", Json (J.Str code)) :: ("message", Json (J.Str msg)) :: json extra)

(* A handler either answers or raises a protocol error. *)
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
let v_open ctx req respond =
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
    respond @@ json
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

(* [xml] is the request's first ["xml"] member, when a string: a JSON
   string body held where it lies in the request line. *)
let service_of req xml =
  match (J.str_member "service" req, xml) with
  | Some name, None ->
    (match Weblab_services.Catalog.find name with
    | Some e -> e.Weblab_services.Catalog.service
    | None ->
      reject "unknown_service"
        (Printf.sprintf "unknown service %S (%s)" name
           (String.concat "|" Weblab_services.Catalog.service_names)))
  | None, Some text ->
    (* A client-supplied next document state: the streaming route — the
       body's parser events are grafted onto the live arena in one pass
       ({!Weblab_xml.Diff.graft}), with no second arena and no
       serialization of the current state.  Malformed XML fails the call
       (total parse-error rendering), never the session. *)
    let name = opt_default "ClientXml" (J.str_member "name" req) in
    Session.client_xml_text ~name text
  | Some _, Some _ | None, None ->
    reject "bad_request" "commit takes exactly one of \"service\" or \"xml\""

(* [held] is the session whose lock the request's reading took. *)
let v_commit ~xml ~held ctx req respond =
  let sess = match held with Some s -> s | None -> session_of ctx req in
  let svc = service_of req xml in
  let svc =
    match fault_of req with
    | Some f -> Weblab_services.Faulty.with_fault ~stall_s:0.01 f svc
    | None -> svc
  in
  let commit () = Session.commit sess svc in
  match
    if Option.is_some held then commit () else Session.with_lock sess commit
  with
  | Ok { Session.time; attempts; new_nodes; promoted } ->
    respond @@ json
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

let v_query ctx req respond =
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
        respond [ ("uris", Json (J.List (List.map (fun u -> J.Str u) uris))) ]
      | "sparql" ->
        let q = required_str req "query" in
        (match Session.sparql sess q with
        | rows ->
          let cols = Weblab_rdf.Sparql.columns rows in
          respond
            [ ("columns", Json (J.List (List.map (fun c -> J.Str c) cols)));
              ("rows", Rows rows) ]
        | exception Weblab_rdf.Sparql.Error msg -> reject "query_error" msg)
      | "turtle" -> respond [ ("turtle", Text (Session.turtle_render sess)) ]
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

let v_stats ctx req respond =
  match J.str_member "session" req with
  | Some _ ->
    let sess = session_of ctx req in
    let s = Session.with_lock sess (fun () -> Session.stats sess) in
    respond (json (session_stats_fields s))
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
    respond @@ json
      [ ("live", J.Int (Registry.live ctx.registry));
        ("max_sessions", J.Int (Registry.max_sessions ctx.registry));
        ("restored", J.Int restored);
        ("sessions", J.List (List.map (fun s -> J.Str s) ids)) ]

(* ----- close ----- *)

let v_close ctx req respond =
  let sid = required_str req "session" in
  match Registry.remove ctx.registry sid with
  | None -> reject "unknown_session" (Printf.sprintf "no session %S" sid)
  | Some sess ->
    Session.with_lock sess (fun () ->
        ignore (Session.close sess);
        let s = Session.stats sess in
        let base =
          json
            [ ("commits", J.Int s.Session.st_commits);
              ("failed", J.Int s.Session.st_failed);
              ("links", J.Int s.Session.st_links) ]
        in
        let extra =
          if opt_default false (J.bool_member "turtle" req) then
            [ ("turtle", Text (Session.turtle_render sess)) ]
          else []
        in
        respond (base @ extra))

(* ----- metrics ----- *)

let level_name = function
  | T.Off -> "off"
  | T.Counters -> "counters"
  | T.Full -> "full"

(* The introspection verb: a structured {!Metrics.snapshot} (plain
   [metrics]), or one request's spans pulled from the ring by the id
   that stamped them ([{"trace": rid}]). *)
let v_metrics _ctx req respond =
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
    respond (json [ ("trace", J.Str rid); ("spans", J.List spans) ])
  | None ->
    let sn = M.snapshot () in
    let hist_obj hv =
      J.Obj
        [ ("count", J.Int hv.M.hv_count); ("sum_us", J.Int hv.M.hv_sum_us);
          ("max_us", J.Int hv.M.hv_max_us); ("p50_us", J.Int hv.M.hv_p50_us);
          ("p90_us", J.Int hv.M.hv_p90_us); ("p99_us", J.Int hv.M.hv_p99_us) ]
    in
    respond @@ json
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

let log_slow ctx ~verb ~rid ~dur_us req sm =
  match ctx.slow with
  | Some sl when dur_us >= sl.sl_threshold_us ->
    T.incr c_slow;
    let session =
      match sm.sm_session with
      | Some s -> s
      | None -> opt_default "" (J.str_member "session" req)
    in
    let line =
      Weblab_obs.Sinks.slow_query_line ~verb ~session ~req:rid ~dur_us
        ~ok:sm.sm_ok ~detail:sm.sm_detail
    in
    Mutex.protect sl.sl_lock (fun () ->
        output_string sl.sl_oc line;
        output_char sl.sl_oc '\n';
        flush sl.sl_oc)
  | Some _ | None -> ()

(* ----- reading a request -----

   A request line is read member by member.  Its first ["xml"] member,
   when a string, stays raw: a {!Weblab_xml.Xml_text.t} over the line.
   When ["verb": "commit"] and the ["session"] of a known session come
   before it, the rest of the line is read under that session's lock:
   the body's prefix shared with the session's last accepted state, up
   to a mark of its record, was validated when that state was read, so
   the scan starts there ({!Weblab_xml.Diff.resume_offset}).  Members in
   any other order scan the body whole; either way the graft sees the
   same raw source.  Nothing is dispatched before the whole line
   parses, so a malformed line commits nothing.  Later ["xml"] members
   are read and dropped: the first one wins, as {!J.member} has it. *)

type request = {
  req : J.t;  (* every member but a raw ["xml"] *)
  xml : Weblab_xml.Xml_text.t option;
  held : Session.t option;  (* the session whose lock the reading took *)
}

type read =
  | Request of request
  | Deferred of Session.t * int * (string * J.t) list
      (* a commit's session, the offset of its "xml" body and the
         members read before it, latest first *)

let request_of_json req =
  { req;
    xml =
      Option.map Weblab_xml.Xml_text.of_string (J.str_member "xml" req);
    held = None }

let commit_session ctx acc =
  let head = J.Obj (List.rev acc) in
  match (J.str_member "verb" head, J.str_member "session" head) with
  | Some "commit", Some sid -> Registry.find ctx.registry sid
  | _ -> None

let rec read_members ctx line r ~held acc xml =
  match J.next_member r with
  | None ->
    J.finish r;
    Request { req = J.Obj (List.rev acc); xml; held }
  | Some "xml" when Option.is_none xml && not (List.mem_assoc "xml" acc) -> (
    match J.string_start r with
    | None -> read_members ctx line r ~held (("xml", J.member_value r) :: acc) xml
    | Some off -> (
      match commit_session ctx acc with
      | Some sess -> Deferred (sess, off, acc)
      | None -> read_body ctx line r ~held acc off off))
  | Some "xml" ->
    ignore (J.member_value r);
    read_members ctx line r ~held acc xml
  | Some k -> read_members ctx line r ~held ((k, J.member_value r) :: acc) xml

(* The "xml" body at [off], scanned from [from] on, and the rest. *)
and read_body ctx line r ~held acc off from =
  let q = J.string_end r from in
  read_members ctx line r ~held acc
    (Some (Weblab_xml.Xml_text.of_json line ~off ~len:(q - off)))

let parsed f =
  match f () with
  | v -> Ok v
  | exception (J.Parse_error msg | Failure msg) -> Error msg

(* Write the reply to one request.  An exception before the reply's
   first byte drains becomes an error reply in its place; a verb's
   [respond] is total, so none comes later. *)
let write_response ctx w q =
  let req = q.req in
  match J.str_member "verb" req with
  | None -> ignore (write_error w req "bad_request" "missing string field \"verb\"" [])
  | Some verb ->
    let dispatch f =
      let mark = Sink.length w in
      let respond members = Sent (write_reply w req ~ok:true members) in
      let fail e code msg extra =
        if Sink.rewind w mark then write_error w req code msg extra else raise e
      in
      match f ctx req respond with
      | Sent sm -> sm
      | exception (Reject (code, msg, extra) as e) -> fail e code msg extra
      | exception e ->
        (* The backstop: an unexpected exception is confined to this
           request; the session registry stays intact. *)
        fail e "internal_error" (Printexc.to_string e) []
    in
    let run f =
      (* Off is one atomic load and the bare dispatch — no id draw, no
         clock read, no histogram. *)
      if not (T.enabled ()) then ignore (dispatch f)
      else begin
        T.incr (verb_counter verb);
        let rid = request_id req in
        let t0 = Unix.gettimeofday () in
        let sm =
          T.with_request rid (fun () ->
              T.span ~cat:"serve" ("serve." ^ verb) (fun () -> dispatch f))
        in
        let dur_us = (Unix.gettimeofday () -. t0) *. 1e6 in
        M.observe_us (verb_hist verb) dur_us;
        log_slow ctx ~verb ~rid ~dur_us req sm
      end
    in
    (match verb with
    | "open" -> run v_open
    | "commit" -> run (v_commit ~xml:q.xml ~held:q.held)
    | "query" -> run v_query
    | "stats" -> run v_stats
    | "metrics" -> run v_metrics
    | "close" -> run v_close
    | v ->
      ignore
        (write_error w req "bad_request" (Printf.sprintf "unknown verb %S" v) []))

let write_line ctx line w =
  let r = J.reader line in
  let rec answer = function
    | Error msg -> ignore (write_error w (J.Obj []) "parse_error" msg [])
    | Ok (Request q) -> write_response ctx w q
    | Ok (Deferred (sess, off, acc)) ->
      Session.with_lock sess (fun () ->
          answer
            (parsed (fun () ->
                 let from =
                   match Session.accepted sess with
                   | Some a -> Weblab_xml.Diff.resume_offset a line off
                   | None -> 0
                 in
                 read_body ctx line r ~held:(Some sess) acc off (off + from))))
  in
  answer
    (parsed (fun () ->
         if J.object_start r then read_members ctx line r ~held:None [] None
         else Request (request_of_json (J.parse line))))

(* The reply is held whole in [buf] anyway, so a small stage does: the
   connection loop's 64 KiB one lives as long as its connection, but
   this one is made per call. *)
let to_buffer f =
  let buf = Buffer.create 256 in
  let w = Sink.create ~size:4096 (Buffer.add_subbytes buf) in
  f w;
  Sink.flush w;
  Buffer.contents buf

let handle ctx req =
  J.parse (to_buffer (fun w -> write_response ctx w (request_of_json req)))

let handle_line ctx line = to_buffer (write_line ctx line)
