(* The serving subsystem end to end: the JSON codec, the protocol verbs
   (open / commit / query / stats / close) over a live registry, failure
   containment (a poisoned commit fails the call, never the session),
   admission control and budgets, bit-identity between the served path
   and the offline engine, and the TCP transport itself.

   Sessions serve Fused only; the served session is checked against the
   offline run of each of the four backends at every commit.  The
   central qcheck property is the twin-session law: for every injected
   fault, a session that receives a failing commit keeps a graph
   byte-identical (Turtle) to every backend's offline run that never saw
   the commit — and stays usable afterwards.

   Also holds the boundary regressions for the arena primitives the
   rollback path leans on (Vec.merge / Tree.truncate_to / restore at
   the i = size and empty-arena edges). *)

open Weblab_xml
open Weblab_workflow
open Weblab_services
open Weblab_prov
open Weblab_server
open QCheck
module J = Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Every bit of mutable arena state — same notion of "bit-identical" as
   test_faults. *)
let fingerprint doc =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "size=%d root=%d\n" (Tree.size doc)
       (if Tree.has_root doc then Tree.root doc else Tree.no_node));
  for n = 0 to Tree.size doc - 1 do
    let kind =
      if Tree.is_element doc n then "e:" ^ Tree.name doc n
      else "t:" ^ Tree.text doc n
    in
    Buffer.add_string b
      (Printf.sprintf "%d %s parent=%d attrs=%s created=%d uri_time=%d kids=%s\n"
         n kind (Tree.parent doc n)
         (String.concat ","
            (List.map (fun (k, v) -> k ^ "=" ^ v) (Tree.attrs doc n)))
         (Tree.created doc n) (Tree.uri_time doc n)
         (String.concat "," (List.map string_of_int (Tree.children doc n))))
  done;
  Buffer.contents b

let full_rulebook =
  List.map
    (fun (e : Catalog.entry) ->
      (Service.name e.Catalog.service, List.map Rule_parser.parse e.Catalog.rules))
    Catalog.entries

(* ===== JSON codec ===== *)

let roundtrip v = J.parse (J.to_string v)

let test_json_roundtrip () =
  let cases =
    [ J.Null; J.Bool true; J.Bool false; J.Int 0; J.Int (-42);
      J.Int max_int; J.Float 2.5; J.Float (-0.25); J.Str "";
      J.Str "plain"; J.Str "esc \" \\ \n \t \r \x01 end";
      J.Str "unicode \xc3\xa9 \xe2\x82\xac \xf0\x9f\x90\xab";
      J.List []; J.Obj [];
      J.Obj
        [ ("a", J.List [ J.Int 1; J.Str "x"; J.Null ]);
          ("b", J.Obj [ ("nested", J.Bool false) ]) ] ]
  in
  List.iter
    (fun v ->
      check_bool (J.to_string v) true (roundtrip v = v))
    cases;
  (* integral floats keep their decimal point on the wire, so they
     round-trip as floats *)
  check_string "2.0 prints with its point" "2.0" (J.to_string (J.Float 2.));
  check_bool "2.0 roundtrips" true (roundtrip (J.Float 2.) = J.Float 2.);
  (* JSON has no NaN/Inf: they degrade to null *)
  check_bool "nan -> null" true (J.to_string (J.Float Float.nan) = "null");
  (* whitespace and escapes on the parse side *)
  check_bool "ws" true
    (J.parse " { \"a\" : [ 1 , 2.5 , true , null , \"x\\ny\" ] } "
    = J.Obj
        [ ("a",
           J.List [ J.Int 1; J.Float 2.5; J.Bool true; J.Null; J.Str "x\ny" ])
        ]);
  check_bool "\\u basic" true (J.parse "\"\\u00e9\"" = J.Str "\xc3\xa9");
  check_bool "\\u surrogate pair" true
    (J.parse "\"\\ud83d\\udc2b\"" = J.Str "\xf0\x9f\x90\xab");
  (* responses must stay single-line: the transport frames by newline *)
  check_bool "no newline in output" true
    (not (String.contains (J.to_string (J.Str "a\nb\rc")) '\n'))

let test_json_errors () =
  let bad =
    [ ""; "{"; "[1,"; "tru"; "nul"; "\"unterminated"; "\"\\q\"";
      "1 2"; "{\"a\":}"; "{\"a\" 1}"; "[1 2]"; "{1:2}"; "-"; "01x" ]
  in
  List.iter
    (fun s ->
      match J.parse_opt s with
      | Error _ -> ()
      | Ok v ->
        Alcotest.failf "parse_opt %S should fail, got %s" s (J.to_string v))
    bad;
  check_bool "parse raises Parse_error" true
    (match J.parse "{" with
    | exception J.Parse_error _ -> true
    | _ -> false)

(* print/parse identity over trees without floats (integral floats
   normalize to Int, so the generator sticks to the other constructors) *)
let json_arb =
  let open Gen in
  let key = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  let leaf =
    oneof
      [ return J.Null; map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) int;
        map (fun s -> J.Str s) (string_size (int_bound 12)) ]
  in
  let tree =
    sized @@ fix (fun self n ->
        if n <= 0 then leaf
        else
          oneof
            [ leaf;
              map (fun l -> J.List l) (list_size (int_bound 4) (self (n / 2)));
              map
                (fun kvs -> J.Obj kvs)
                (list_size (int_bound 4)
                   (pair key (self (n / 2)))) ])
  in
  make ~print:J.to_string tree

let prop_json_roundtrip =
  Test.make ~name:"JSON print/parse identity (all constructors but Float)"
    ~count:500 json_arb (fun v -> roundtrip v = v)

(* ===== protocol helpers ===== *)

let rpc ctx fields =
  match J.parse_opt (Protocol.handle_line ctx (J.to_string (J.Obj fields))) with
  | Ok v -> v
  | Error msg -> Alcotest.failf "unparsable response: %s" msg

let is_ok resp = J.bool_member "ok" resp = Some true

let expect_ok what resp =
  if not (is_ok resp) then
    Alcotest.failf "%s: expected ok, got %s" what (J.to_string resp);
  resp

let expect_err what code resp =
  check_bool (what ^ ": not ok") false (is_ok resp);
  check_string (what ^ ": error code") code
    (match J.str_member "error" resp with Some c -> c | None -> "<none>");
  resp

let get_int what field resp =
  match J.int_member field resp with
  | Some i -> i
  | None -> Alcotest.failf "%s: missing int %S in %s" what field (J.to_string resp)

let get_str what field resp =
  match J.str_member field resp with
  | Some s -> s
  | None -> Alcotest.failf "%s: missing str %S in %s" what field (J.to_string resp)

let message resp =
  match J.str_member "message" resp with Some m -> m | None -> ""

(* ===== protocol: lifecycle transcript ===== *)

let test_protocol_lifecycle () =
  let ctx = Protocol.make_ctx ~max_sessions:8 () in
  let open_resp =
    expect_ok "open"
      (rpc ctx
         [ ("verb", J.Str "open"); ("id", J.Int 7); ("session", J.Str "t1");
           ("units", J.Int 2); ("seed", J.Int 7) ])
  in
  check_string "session echoed" "t1" (get_str "open" "session" open_resp);
  check_string "backend" "fused" (get_str "open" "backend" open_resp);
  check_int "request id echoed" 7 (get_int "open" "id" open_resp);
  check_int "next_time" 1 (get_int "open" "next_time" open_resp);
  let commit =
    expect_ok "commit"
      (rpc ctx
         [ ("verb", J.Str "commit"); ("session", J.Str "t1");
           ("service", J.Str "Normaliser") ])
  in
  check_int "time" 1 (get_int "commit" "time" commit);
  check_int "attempts" 1 (get_int "commit" "attempts" commit);
  check_bool "new_nodes > 0" true (get_int "commit" "new_nodes" commit > 0);
  let sparql =
    expect_ok "sparql"
      (rpc ctx
         [ ("verb", J.Str "query"); ("session", J.Str "t1");
           ("kind", J.Str "sparql");
           ("query", J.Str "SELECT ?b ?a WHERE { ?b prov:wasDerivedFrom ?a }")
         ])
  in
  (* a derivation pair from the store, dereferenced back to graph URIs *)
  let derived, source =
    let strip term =
      (* "<...prov#resource/r8>" -> "r8" *)
      match String.rindex_opt term '/' with
      | Some i -> String.sub term (i + 1) (String.length term - i - 2)
      | None -> Alcotest.failf "unexpected term %s" term
    in
    match (J.member "columns" sparql, J.member "rows" sparql) with
    | Some (J.List cols), Some (J.List (J.List [ J.Str b; J.Str a ] :: _)) ->
      check_int "sparql columns" 2 (List.length cols);
      (strip b, strip a)
    | _ -> Alcotest.fail "sparql: expected derivation rows"
  in
  let uris_of what resp =
    match J.member "uris" resp with
    | Some (J.List l) ->
      List.map (function J.Str s -> s | _ -> Alcotest.fail what) l
    | _ -> Alcotest.failf "%s: uris not a list" what
  in
  let why =
    uris_of "why"
      (expect_ok "why"
         (rpc ctx
            [ ("verb", J.Str "query"); ("session", J.Str "t1");
              ("kind", J.Str "why"); ("uri", J.Str derived) ]))
  in
  check_bool
    (Printf.sprintf "why %s contains %s" derived source)
    true
    (List.mem source why);
  let impact =
    uris_of "impact"
      (expect_ok "impact"
         (rpc ctx
            [ ("verb", J.Str "query"); ("session", J.Str "t1");
              ("kind", J.Str "impact"); ("uri", J.Str source) ]))
  in
  check_bool
    (Printf.sprintf "impact %s contains %s" source derived)
    true
    (List.mem derived impact);
  (* unknown URIs answer with an empty list, not an error *)
  check_int "impact of a ghost URI" 0
    (List.length
       (uris_of "ghost"
          (expect_ok "impact ghost"
             (rpc ctx
                [ ("verb", J.Str "query"); ("session", J.Str "t1");
                  ("kind", J.Str "impact"); ("uri", J.Str "ghost") ]))));
  let turtle =
    get_str "turtle" "turtle"
      (expect_ok "turtle"
         (rpc ctx
            [ ("verb", J.Str "query"); ("session", J.Str "t1");
              ("kind", J.Str "turtle") ]))
  in
  check_bool "turtle mentions prov" true (contains ~sub:"prov:" turtle);
  let st =
    expect_ok "stats session"
      (rpc ctx [ ("verb", J.Str "stats"); ("session", J.Str "t1") ])
  in
  (* Every documented field of the per-session reply is pinned here: a
     missing or retyped field is a protocol break, not a formatting
     choice. *)
  check_string "stats session id" "t1" (get_str "stats" "session" st);
  check_string "stats backend" "fused" (get_str "stats" "backend" st);
  check_int "commits" 1 (get_int "stats" "commits" st);
  check_int "failed" 0 (get_int "stats" "failed" st);
  check_int "next_time" 2 (get_int "stats" "next_time" st);
  check_bool "doc_nodes > 0" true (get_int "stats" "doc_nodes" st > 0);
  check_bool "resources > 0" true (get_int "stats" "resources" st > 0);
  check_bool "links >= 0" true (get_int "stats" "links" st >= 0);
  check_bool "not closed" true (J.bool_member "closed" st = Some false);
  check_bool "not restored" true (J.bool_member "restored" st = Some false);
  (let store =
     match J.member "store" st with
     | Some s -> s
     | None -> Alcotest.fail "stats: missing store census"
   in
   let triples = get_int "store" "triples" store in
   let base = get_int "store" "base" store in
   let tail = get_int "store" "tail" store in
   check_bool "store triples > 0" true (triples > 0);
   check_bool "store terms > 0" true (get_int "store" "terms" store > 0);
   check_int "store census adds up" triples (base + tail);
   check_bool "store merges >= 0" true (get_int "store" "merges" store >= 0));
  let g = expect_ok "stats global" (rpc ctx [ ("verb", J.Str "stats") ]) in
  check_int "live" 1 (get_int "stats" "live" g);
  check_int "max_sessions" 8 (get_int "stats" "max_sessions" g);
  check_int "restored count" 0 (get_int "stats" "restored" g);
  (match J.member "sessions" g with
  | Some (J.List [ J.Str "t1" ]) -> ()
  | _ -> Alcotest.fail "stats: sessions should be [\"t1\"]");
  let closed =
    expect_ok "close"
      (rpc ctx
         [ ("verb", J.Str "close"); ("session", J.Str "t1");
           ("turtle", J.Bool true) ])
  in
  check_int "closed commits" 1 (get_int "close" "commits" closed);
  check_bool "close turtle" true
    (String.length (get_str "close" "turtle" closed) > 0);
  check_int "live after close" 0
    (get_int "stats" "live" (expect_ok "stats" (rpc ctx [ ("verb", J.Str "stats") ])));
  ignore
    (expect_err "commit after close" "unknown_session"
       (rpc ctx
          [ ("verb", J.Str "commit"); ("session", J.Str "t1");
            ("service", J.Str "Normaliser") ]))

(* ===== protocol: error paths ===== *)

let test_protocol_errors () =
  let ctx = Protocol.make_ctx ~max_sessions:8 () in
  let line s =
    match J.parse_opt (Protocol.handle_line ctx s) with
    | Ok v -> v
    | Error m -> Alcotest.failf "unparsable response: %s" m
  in
  ignore (expect_err "garbage line" "parse_error" (line "this is not json"));
  ignore (expect_err "non-object" "bad_request" (line "[1,2]"));
  ignore (expect_err "no verb" "bad_request" (line "{}"));
  ignore
    (expect_err "unknown verb" "bad_request"
       (rpc ctx [ ("verb", J.Str "frobnicate") ]));
  ignore
    (expect_err "query unknown session" "unknown_session"
       (rpc ctx
          [ ("verb", J.Str "query"); ("session", J.Str "ghost");
            ("kind", J.Str "turtle") ]));
  ignore
    (expect_err "unknown scenario" "bad_request"
       (rpc ctx [ ("verb", J.Str "open"); ("scenario", J.Str "moon") ]));
  let _ =
    expect_ok "open e1"
      (rpc ctx [ ("verb", J.Str "open"); ("session", J.Str "e1") ])
  in
  ignore
    (expect_err "unknown service" "unknown_service"
       (rpc ctx
          [ ("verb", J.Str "commit"); ("session", J.Str "e1");
            ("service", J.Str "Imaginator") ]));
  ignore
    (expect_err "service+xml" "bad_request"
       (rpc ctx
          [ ("verb", J.Str "commit"); ("session", J.Str "e1");
            ("service", J.Str "Normaliser"); ("xml", J.Str "<a/>") ]));
  ignore
    (expect_err "neither service nor xml" "bad_request"
       (rpc ctx [ ("verb", J.Str "commit"); ("session", J.Str "e1") ]));
  ignore
    (expect_err "unknown query kind" "bad_request"
       (rpc ctx
          [ ("verb", J.Str "query"); ("session", J.Str "e1");
            ("kind", J.Str "when") ]));
  ignore
    (expect_err "missing uri" "bad_request"
       (rpc ctx
          [ ("verb", J.Str "query"); ("session", J.Str "e1");
            ("kind", J.Str "why") ]));
  let sparql_err =
    expect_err "sparql syntax error" "query_error"
      (rpc ctx
         [ ("verb", J.Str "query"); ("session", J.Str "e1");
           ("kind", J.Str "sparql"); ("query", J.Str "SELECT WHERE {") ])
  in
  check_bool "sparql error has message" true
    (String.length (message sparql_err) > 0);
  ignore
    (expect_err "unknown fault" "bad_request"
       (rpc ctx
          [ ("verb", J.Str "commit"); ("session", J.Str "e1");
            ("service", J.Str "Normaliser"); ("fault", J.Str "gremlin") ]));
  (* the session survived the whole gauntlet *)
  let st =
    expect_ok "stats after errors"
      (rpc ctx [ ("verb", J.Str "stats"); ("session", J.Str "e1") ])
  in
  check_int "no commits burned by bad requests" 0 (get_int "st" "failed" st)

(* ===== protocol: one engine ===== *)

(* An older client still sends "backend" and "jobs" at open.  Unknown
   fields are ignored: the session is served by Fused at width 1 and
   says so, and it answers what a plain open answers. *)
let test_legacy_open_fields () =
  let ctx = Protocol.make_ctx ~max_sessions:8 () in
  let open_s sid extra =
    expect_ok ("open " ^ sid)
      (rpc ctx
         ([ ("verb", J.Str "open"); ("session", J.Str sid); ("units", J.Int 2);
            ("seed", J.Int 7) ]
         @ extra))
  in
  let turtle_after_commits sid =
    List.iter
      (fun svc ->
        ignore
          (expect_ok ("commit " ^ svc)
             (rpc ctx
                [ ("verb", J.Str "commit"); ("session", J.Str sid);
                  ("service", J.Str svc) ])))
      [ "Normaliser"; "LanguageExtractor" ];
    get_str "turtle" "turtle"
      (expect_ok "turtle"
         (rpc ctx
            [ ("verb", J.Str "query"); ("session", J.Str sid);
              ("kind", J.Str "turtle") ]))
  in
  ignore (open_s "plain" []);
  let expected = turtle_after_commits "plain" in
  List.iter
    (fun (sid, backend) ->
      let resp =
        open_s sid [ ("backend", J.Str backend); ("jobs", J.Int 2) ]
      in
      check_string (sid ^ ": open replies fused") "fused"
        (get_str "open" "backend" resp);
      check_string (sid ^ ": stats replies fused") "fused"
        (get_str "stats" "backend"
           (expect_ok "stats"
              (rpc ctx [ ("verb", J.Str "stats"); ("session", J.Str sid) ])));
      check_string (sid ^ ": same answers as a plain open") expected
        (turtle_after_commits sid))
    [ ("legacy-online", "online"); ("legacy-psychic", "psychic") ]

let test_session_fused_only () =
  List.iter
    (fun kind ->
      match
        Session.create ~id:"x" ~backend:kind
          ~doc:(Workload.make_document ~units:1 ~seed:1 ())
          full_rulebook
      with
      | exception Invalid_argument _ -> ()
      | _ ->
        Alcotest.failf "Session.create ~backend:%s should raise"
          (Strategy.kind_to_string kind))
    [ `Online; `Replay; `Rewrite ];
  ignore
    (Session.close
       (Session.create ~id:"y" ~backend:`Fused
          ~doc:(Workload.make_document ~units:1 ~seed:1 ())
          full_rulebook))

(* ===== protocol: admission control ===== *)

let test_admission () =
  let ctx = Protocol.make_ctx ~max_sessions:2 () in
  let open_s id =
    rpc ctx [ ("verb", J.Str "open"); ("session", J.Str id) ]
  in
  ignore (expect_ok "open a" (open_s "a"));
  ignore (expect_ok "open b" (open_s "b"));
  ignore (expect_err "third open rejected" "admission_rejected" (open_s "c"));
  ignore (expect_err "duplicate id" "already_open" (open_s "b"));
  ignore (expect_ok "close a" (rpc ctx [ ("verb", J.Str "close"); ("session", J.Str "a") ]));
  ignore (expect_ok "slot freed" (open_s "c"));
  let g = expect_ok "stats" (rpc ctx [ ("verb", J.Str "stats") ]) in
  check_int "live" 2 (get_int "stats" "live" g)

(* ===== protocol: budgets ===== *)

let test_budgets () =
  let ctx = Protocol.make_ctx ~max_sessions:8 () in
  ignore
    (expect_ok "open"
       (rpc ctx
          [ ("verb", J.Str "open"); ("session", J.Str "b1");
            ("units", J.Int 2);
            ("budgets", J.Obj [ ("max_commits", J.Int 2) ]) ]));
  let commit svc extra =
    rpc ctx
      ([ ("verb", J.Str "commit"); ("session", J.Str "b1");
         ("service", J.Str svc) ]
      @ extra)
  in
  ignore (expect_ok "commit 1" (commit "Normaliser" []));
  (* a failed commit counts against the session budget too *)
  ignore
    (expect_err "commit 2 (faulted)" "commit_failed"
       (commit "LanguageExtractor" [ ("fault", J.Str "crash") ]));
  let exhausted =
    expect_err "commit 3" "budget_exceeded" (commit "LanguageExtractor" [])
  in
  check_bool "budget message" true (contains ~sub:"2" (message exhausted));
  (* queries stay up after budget exhaustion *)
  ignore
    (expect_ok "query after exhaustion"
       (rpc ctx
          [ ("verb", J.Str "query"); ("session", J.Str "b1");
            ("kind", J.Str "turtle") ]));
  (* per-call output budget: fails the call, not the session *)
  ignore
    (expect_ok "open b2"
       (rpc ctx
          [ ("verb", J.Str "open"); ("session", J.Str "b2");
            ("units", J.Int 2);
            ("budgets", J.Obj [ ("max_new_nodes", J.Int 0) ]) ]));
  let failed =
    expect_err "output budget" "commit_failed"
      (rpc ctx
         [ ("verb", J.Str "commit"); ("session", J.Str "b2");
           ("service", J.Str "Normaliser") ])
  in
  check_int "burned at time 1" 1 (get_int "failed" "time" failed);
  let st =
    expect_ok "stats b2" (rpc ctx [ ("verb", J.Str "stats"); ("session", J.Str "b2") ])
  in
  check_int "b2 commits" 0 (get_int "st" "commits" st);
  check_int "b2 failed" 1 (get_int "st" "failed" st);
  check_int "b2 next_time burned" 2 (get_int "st" "next_time" st)

(* ===== protocol: fault containment and client XML ===== *)

let test_fault_containment () =
  let ctx = Protocol.make_ctx ~max_sessions:8 () in
  ignore
    (expect_ok "open"
       (rpc ctx
          [ ("verb", J.Str "open"); ("session", J.Str "f1");
            ("units", J.Int 2) ]));
  let commit extra =
    rpc ctx ([ ("verb", J.Str "commit"); ("session", J.Str "f1") ] @ extra)
  in
  ignore (expect_ok "commit ok" (commit [ ("service", J.Str "Normaliser") ]));
  let crash =
    expect_err "crash commit" "commit_failed"
      (commit
         [ ("service", J.Str "LanguageExtractor"); ("fault", J.Str "crash") ])
  in
  check_int "crash time" 2 (get_int "crash" "time" crash);
  check_int "crash attempts" 1 (get_int "crash" "attempts" crash);
  (* garbage client XML exercises the total parse-error rendering *)
  let garbage =
    expect_err "garbage xml" "commit_failed"
      (commit [ ("xml", J.Str "<Resource id=\"r1\"") ])
  in
  check_bool "parse error surfaced" true
    (contains ~sub:"XML parse error" (message garbage));
  (* the session took two failures and keeps committing *)
  let c =
    expect_ok "commit after failures"
      (commit [ ("service", J.Str "LanguageExtractor") ])
  in
  check_int "time moved past burned stamps" 4 (get_int "commit" "time" c);
  let st =
    expect_ok "stats" (rpc ctx [ ("verb", J.Str "stats"); ("session", J.Str "f1") ])
  in
  check_int "commits" 2 (get_int "st" "commits" st);
  check_int "failed" 2 (get_int "st" "failed" st)

(* ===== served path = offline engine, per backend ===== *)

module Driver = Weblab_test_support.Backend_driver

(* Each backend's offline run of the same calls, stepped alongside a
   served session: the engine changes what a commit costs, never what it
   answers. *)
let drivers ~doc =
  List.map
    (fun kind ->
      ( Strategy.kind_to_string kind,
        Driver.start ~policy:Session.default_budgets.Session.policy
          (Strategy.backend_of kind) ~doc:(doc ()) full_rulebook ))
    Strategy.all

let test_serve_matches_offline () =
  let services = Workload.standard_pipeline () in
  let doc () = Workload.make_document ~units:2 ~seed:11 () in
  let offline = drivers ~doc in
  let ctx = Protocol.make_ctx ~max_sessions:4 () in
  ignore
    (expect_ok "open"
       (rpc ctx
          [ ("verb", J.Str "open"); ("session", J.Str "s"); ("units", J.Int 2);
            ("seed", J.Int 11) ]));
  let agree what served =
    List.iter
      (fun (bname, d) ->
        check_string
          (Printf.sprintf "%s: served Turtle = %s offline" what bname)
          (Driver.turtle d) served)
      offline
  in
  let served_turtle () =
    get_str "turtle" "turtle"
      (expect_ok "turtle"
         (rpc ctx
            [ ("verb", J.Str "query"); ("session", J.Str "s");
              ("kind", J.Str "turtle") ]))
  in
  agree "open" (served_turtle ());
  List.iter
    (fun svc ->
      ignore
        (expect_ok
           ("commit " ^ Service.name svc)
           (rpc ctx
              [ ("verb", J.Str "commit"); ("session", J.Str "s");
                ("service", J.Str (Service.name svc)) ]));
      List.iter (fun (_, d) -> ignore (Driver.step d svc)) offline;
      agree (Service.name svc) (served_turtle ()))
    services;
  let served =
    get_str "close" "turtle"
      (expect_ok "close"
         (rpc ctx
            [ ("verb", J.Str "close"); ("session", J.Str "s");
              ("turtle", J.Bool true) ]))
  in
  List.iter
    (fun kind ->
      let exec, g =
        Engine.run_with_strategy ~jobs:1 kind (doc ()) services full_rulebook
      in
      check_string
        (Strategy.kind_to_string kind ^ ": served Turtle = one-shot offline")
        (Engine.to_turtle ~trace:exec.Engine.trace g)
        served)
    Strategy.all

(* ===== the twin-session law (qcheck) ===== *)

(* Faults whose injected failure is unconditional; Stall only fails
   under a max_call_s budget and gets its own deterministic test. *)
let hard_faults =
  [ Faulty.Crash; Faulty.Garbage_xml; Faulty.Mutate_committed;
    Faulty.Duplicate_uri ]

let graph_turtle g = Prov_export.to_turtle g

(* The served session and every backend's offline run take the same
   prefix, each checked against the others at every commit; then the
   session alone takes a poisoned commit.  Its graph must still equal
   every offline run, which never saw the commit, and the session must
   still commit the clean call. *)
let run_twin ~fault ~seed ~prefix_len =
  let services = Workload.standard_pipeline ~extended:true () in
  let prefix = List.filteri (fun i _ -> i < prefix_len) services in
  let target = List.nth services prefix_len in
  let doc () = Workload.make_document ~units:2 ~seed () in
  let a = Session.create ~id:"twin-a" ~backend:`Fused ~doc:(doc ()) full_rulebook in
  let offline = drivers ~doc in
  let served_matches () =
    let t = Session.turtle a in
    List.for_all (fun (_, d) -> String.equal t (Driver.turtle d)) offline
  in
  let prefix_ok =
    List.for_all
      (fun svc ->
        match Session.commit a svc with
        | Ok _ ->
          List.iter (fun (_, d) -> ignore (Driver.step d svc)) offline;
          served_matches ()
        | Error _ -> Test.fail_report "prefix commit failed")
      prefix
  in
  (match Session.commit a (Faulty.with_fault ~stall_s:0.001 fault target) with
  | Error (Session.Call_failed _) -> ()
  | Ok _ -> Test.fail_report "faulted commit committed"
  | Error _ -> Test.fail_report "faulted commit: wrong error");
  let identical =
    let g = graph_turtle (Session.graph a) in
    List.for_all (fun (_, d) -> String.equal g (graph_turtle (Driver.graph d)))
      offline
  in
  let usable =
    match Session.commit a target with Ok _ -> true | Error _ -> false
  in
  ignore (Session.close a);
  prefix_ok && identical && usable

let prop_faulted_commit_leaves_store_identical =
  Test.make
    ~name:
      "twin sessions: a failed injected-fault commit leaves the served \
       Fused graph byte-identical (Turtle) to every backend's offline run \
       that never saw it, for four unconditional faults"
    ~count:8
    (pair (int_bound 10_000) (int_bound 3))
    (fun (seed, prefix_len) ->
      List.for_all
        (fun fault -> run_twin ~fault ~seed ~prefix_len)
        hard_faults)

(* Stall, deterministically: it only fails when a max_call_s budget
   trips, so give the session one and make the stall exceed it. *)
let test_stall_budget_containment () =
  let budgets =
    { Session.default_budgets with
      policy =
        { Session.default_budgets.Session.policy with max_call_s = Some 0.005 }
    }
  in
  let doc () = Workload.make_document ~units:2 ~seed:3 () in
  let a = Session.create ~id:"stall-a" ~backend:`Fused ~budgets ~doc:(doc ()) full_rulebook in
  let svc = List.hd (Workload.standard_pipeline ()) in
  (match Session.commit a (Faulty.with_fault ~stall_s:0.05 Faulty.Stall svc) with
  | Error (Session.Call_failed { reason; _ }) ->
    check_bool "budget tripped" true (contains ~sub:"budget" reason)
  | _ -> Alcotest.fail "stalled call should fail under max_call_s");
  List.iter
    (fun (bname, d) ->
      check_string
        (bname ^ " offline: store untouched by stall")
        (graph_turtle (Driver.graph d))
        (graph_turtle (Session.graph a)))
    (drivers ~doc);
  ignore (Session.close a)

(* ===== stepwise orchestration = one-shot execution ===== *)

let test_step_equals_execute () =
  let services = Workload.standard_pipeline ~extended:true () in
  let doc1 = Workload.make_document ~units:2 ~seed:5 () in
  let trace1 = Orchestrator.execute doc1 services in
  let doc2 = Workload.make_document ~units:2 ~seed:5 () in
  let s = Orchestrator.start doc2 in
  List.iter
    (fun svc ->
      match Orchestrator.step s svc with
      | Orchestrator.Committed _ -> ()
      | Orchestrator.Step_failed { reason; _ } ->
        Alcotest.failf "step failed: %s" reason)
    services;
  check_string "stepwise doc = one-shot doc" (fingerprint doc1)
    (fingerprint doc2);
  check_string "stepwise trace = one-shot trace" (Trace.source_table trace1)
    (Trace.source_table (Orchestrator.session_trace s));
  check_int "next_time past the pipeline"
    (List.length services + 1)
    (Orchestrator.next_time s)

(* ===== arena boundary regressions ===== *)

let expect_invalid what sub f =
  match f () with
  | exception Invalid_argument msg ->
    check_bool
      (Printf.sprintf "%s: message %S mentions %S" what msg sub)
      true (contains ~sub msg)
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what

let test_vec_boundaries () =
  let v = Vec.create ~dummy:(-1) in
  (* merging into the empty vector, an empty batch, and a batch landing
     between existing elements are all legal *)
  Vec.merge v [| 10; 12 |] ~less:( < );
  Vec.merge v [||] ~less:( < );
  Vec.merge v [| 11 |] ~less:( < );
  check_bool "merge order" true (Vec.to_list v = [ 10; 11; 12 ]);
  expect_invalid "get at size" "Vec.get" (fun () -> Vec.get v 3);
  expect_invalid "set at size" "Vec.set" (fun () -> Vec.set v 3 0);
  expect_invalid "truncate past size" "Vec.truncate" (fun () -> Vec.truncate v 4);
  (* the message carries both the index and the size *)
  (match Vec.get v 3 with
  | exception Invalid_argument msg ->
    check_bool "index and size in message" true
      (contains ~sub:"index 3" msg && contains ~sub:"(size 3)" msg)
  | _ -> Alcotest.fail "expected Invalid_argument");
  Vec.truncate v 3;
  check_int "truncate at size is a no-op" 3 (Vec.length v);
  Vec.truncate v 0;
  check_int "truncate to empty" 0 (Vec.length v);
  expect_invalid "get on empty" "Vec.get" (fun () -> Vec.get v 0)

let test_tree_boundaries () =
  (* empty arena *)
  let doc = Tree.create () in
  let g0 = Tree.generation doc in
  Tree.truncate_to doc 0;
  check_int "truncate_to size on empty arena: no generation bump" g0
    (Tree.generation doc);
  expect_invalid "truncate_to negative" "Tree.truncate_to" (fun () ->
      Tree.truncate_to doc (-1));
  expect_invalid "truncate_to past size" "Tree.truncate_to" (fun () ->
      Tree.truncate_to doc 1);
  let ck_empty = Tree.checkpoint doc in
  let root = Tree.new_element doc ~parent:Tree.no_node "Resource" in
  Tree.set_uri doc root "r1";
  Tree.restore doc ck_empty;
  check_int "restore to empty arena" 0 (Tree.size doc);
  check_bool "no root after restore" false (Tree.has_root doc);
  (* promotion rollback: restore must rewind both timestamp columns *)
  let doc = Workload.make_document ~units:1 ~seed:1 () in
  let before = fingerprint doc in
  let ck = Tree.checkpoint doc in
  let root = Tree.root doc in
  let n = Tree.new_element doc ~parent:root "Extra" in
  Tree.set_uri doc n "x9";
  Tree.set_uri_time doc n 5;
  Tree.set_attr doc root "touched" "yes";
  Tree.restore doc ck;
  check_string "restore is bit-identical" before (fingerprint doc);
  (* truncate_to at size never invalidates size-stamped caches ... *)
  let idx = Index.build doc in
  Tree.truncate_to doc (Tree.size doc);
  check_bool "index extends over a no-op truncate" true
    (Index.extend idx doc ~promoted:[]);
  (* ... but a real shrink bumps the generation and the index refuses *)
  let idx = Index.build doc in
  let g1 = Tree.generation doc in
  let sz = Tree.size doc in
  ignore (Tree.new_element doc ~parent:(Tree.root doc) "Tmp");
  Tree.truncate_to doc sz;
  check_bool "shrink bumps generation" true (Tree.generation doc > g1);
  check_bool "index refuses after shrink" false
    (Index.extend idx doc ~promoted:[])

(* ===== metrics verb and slow-query log ===== *)

(* The recorder is process-global; this test turns it on (Full, with a
   bounded span ring — the daemon configuration) and restores Off so the
   rest of the suite stays uninstrumented. *)
let with_recorder f =
  let module T = Weblab_obs.Telemetry in
  T.set_level T.Full;
  T.set_retention (Some 4096);
  T.reset ();
  Fun.protect
    ~finally:(fun () ->
      T.set_retention None;
      T.set_level T.Off;
      T.reset ())
    f

let test_metrics_verb () =
  with_recorder (fun () ->
      let ctx = Protocol.make_ctx ~max_sessions:8 () in
      ignore
        (expect_ok "open"
           (rpc ctx
              [ ("verb", J.Str "open"); ("session", J.Str "m1");
                ("units", J.Int 2); ("seed", J.Int 5) ]));
      List.iter
        (fun svc ->
          ignore
            (expect_ok ("commit " ^ svc)
               (rpc ctx
                  [ ("verb", J.Str "commit"); ("session", J.Str "m1");
                    ("service", J.Str svc) ])))
        [ "Normaliser"; "LanguageExtractor"; "Translator" ];
      ignore
        (expect_ok "query"
           (rpc ctx
              [ ("verb", J.Str "query"); ("session", J.Str "m1");
                ("kind", J.Str "turtle") ]));
      let m = expect_ok "metrics" (rpc ctx [ ("verb", J.Str "metrics") ]) in
      (match J.member "uptime_us" m with
      | Some (J.Float u) -> check_bool "uptime > 0" true (u > 0.)
      | Some (J.Int u) -> check_bool "uptime > 0" true (u > 0)
      | _ -> Alcotest.fail "metrics: no uptime_us");
      check_string "level" "full" (get_str "metrics" "level" m);
      (* Per-verb histogram counts equal the requests driven above; the
         metrics request itself is observed after its reply is built, so
         it is absent from its own snapshot. *)
      let hist_count verb =
        match J.member "histograms" m with
        | Some (J.Obj hs) -> (
          match List.assoc_opt ("serve.verb." ^ verb) hs with
          | Some h -> get_int "hist" "count" h
          | None -> 0)
        | _ -> Alcotest.fail "metrics: no histograms"
      in
      check_int "open histogram count" 1 (hist_count "open");
      check_int "commit histogram count" 3 (hist_count "commit");
      check_int "query histogram count" 1 (hist_count "query");
      check_int "metrics not in its own snapshot" 0 (hist_count "metrics");
      (match J.member "histograms" m with
      | Some (J.Obj hs) -> (
        match List.assoc_opt "serve.verb.commit" hs with
        | Some h ->
          check_bool "commit p50 <= p99" true
            (get_int "hist" "p50_us" h <= get_int "hist" "p99_us" h);
          (* quantiles report bucket upper bounds, so p99 may sit up to
             one bucket width (<= 25%) above the exact max *)
          check_bool "commit p99 within a bucket of max" true
            (let mx = get_int "hist" "max_us" h in
             get_int "hist" "p99_us" h <= mx + (mx / 4) + 1)
        | None -> Alcotest.fail "metrics: no commit histogram")
      | _ -> Alcotest.fail "metrics: no histograms");
      (match J.member "gauges" m with
      | Some (J.Obj gs) ->
        check_bool "sessions.active gauge reads 1" true
          (List.assoc_opt "serve.sessions.active" gs = Some (J.Int 1))
      | _ -> Alcotest.fail "metrics: no gauges");
      (match J.member "spans" m with
      | Some sp ->
        check_bool "spans buffered > 0" true (get_int "spans" "buffered" sp > 0);
        check_int "no drops under the cap" 0 (get_int "spans" "dropped" sp)
      | None -> Alcotest.fail "metrics: no spans");
      (* Per-request tracing: a client-tagged request's spans come back
         under its id. *)
      ignore
        (expect_ok "tagged query"
           (rpc ctx
              [ ("verb", J.Str "query"); ("session", J.Str "m1");
                ("kind", J.Str "why"); ("uri", J.Str "mu1");
                ("id", J.Str "trace-me") ]));
      let tr =
        expect_ok "trace"
          (rpc ctx [ ("verb", J.Str "metrics"); ("trace", J.Str "trace-me") ])
      in
      (match J.member "spans" tr with
      | Some (J.List (_ :: _ as spans)) ->
        check_bool "every span carries the request id" true
          (List.for_all
             (fun s ->
               match J.member "args" s with
               | Some args -> J.str_member "req" args = Some "trace-me"
               | None -> false)
             spans)
      | _ -> Alcotest.failf "trace: no spans for the tagged request: %s"
               (J.to_string tr));
      (* an unknown id answers with an empty list, not an error *)
      (match
         J.member "spans"
           (expect_ok "trace ghost"
              (rpc ctx [ ("verb", J.Str "metrics"); ("trace", J.Str "ghost") ]))
       with
      | Some (J.List []) -> ()
      | _ -> Alcotest.fail "trace: ghost id should yield zero spans");
      (* The Prometheus exposition renders the same snapshot. *)
      let expo = Weblab_obs.Sinks.exposition () in
      check_bool "exposition: verb histogram" true
        (contains ~sub:"weblab_serve_verb_commit_us_count" expo);
      check_bool "exposition: active-sessions gauge" true
        (contains ~sub:"weblab_serve_sessions_active 1" expo);
      check_bool "exposition: uptime" true
        (contains ~sub:"weblab_uptime_seconds" expo))

let test_slow_query_log () =
  with_recorder (fun () ->
      let path = Filename.temp_file "weblab_slow" ".jsonl" in
      (* Threshold 0: every request is "slow", so the log observably
         works without a contrived stall. *)
      let ctx = Protocol.make_ctx ~max_sessions:8 ~slow_log_path:path ~slow_ms:0. () in
      ignore
        (expect_ok "open"
           (rpc ctx
              [ ("verb", J.Str "open"); ("session", J.Str "s1");
                ("units", J.Int 2); ("id", J.Str "rq1") ]));
      ignore
        (expect_ok "commit"
           (rpc ctx
              [ ("verb", J.Str "commit"); ("session", J.Str "s1");
                ("service", J.Str "Normaliser") ]));
      ignore
        (expect_err "bad verb is logged too" "bad_request"
           (rpc ctx [ ("verb", J.Str "query"); ("session", J.Str "s1");
                      ("kind", J.Str "nope") ]));
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      Sys.remove path;
      let lines = List.rev !lines in
      check_int "one record per request" 3 (List.length lines);
      let parsed =
        List.map
          (fun l ->
            match J.parse_opt l with
            | Ok v -> v
            | Error m -> Alcotest.failf "slow log line unparsable (%s): %s" m l)
          lines
      in
      (match parsed with
      | [ o; c; q ] ->
        check_string "open verb" "open" (get_str "slow" "verb" o);
        check_string "open req id" "rq1" (get_str "slow" "req" o);
        check_bool "open ok" true (J.bool_member "ok" o = Some true);
        check_string "commit verb" "commit" (get_str "slow" "verb" c);
        check_string "commit session" "s1" (get_str "slow" "session" c);
        check_bool "commit carries new_nodes" true
          (get_int "slow" "new_nodes" c > 0);
        check_bool "commit carries a duration" true
          (match J.member "dur_us" c with
          | Some (J.Int d) -> d >= 0
          | Some (J.Float d) -> d >= 0.
          | _ -> false);
        check_bool "failed query logged not ok" true
          (J.bool_member "ok" q = Some false)
      | _ -> Alcotest.fail "slow log: expected exactly three records");
      check_int "serve.slow_queries counts them" 3
        (match
           List.assoc_opt "serve.slow_queries"
             (Weblab_obs.Telemetry.counters ())
         with
        | Some n -> n
        | None -> 0))

(* ===== TCP transport ===== *)

let test_tcp_roundtrip () =
  let ctx = Protocol.make_ctx ~max_sessions:4 () in
  let srv = Server.start ~port:0 ctx in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let ask fields =
    output_string oc (J.to_string (J.Obj fields));
    output_char oc '\n';
    flush oc;
    match J.parse_opt (input_line ic) with
    | Ok v -> v
    | Error m -> Alcotest.failf "bad wire response: %s" m
  in
  let opened =
    expect_ok "tcp open"
      (ask [ ("verb", J.Str "open"); ("units", J.Int 2) ])
  in
  let sid = get_str "open" "session" opened in
  ignore
    (expect_ok "tcp commit"
       (ask
          [ ("verb", J.Str "commit"); ("session", J.Str sid);
            ("service", J.Str "Normaliser") ]));
  (* blank lines are ignored, a bad line answers without killing the
     connection *)
  output_string oc "\n  \nnot json\n";
  flush oc;
  ignore (expect_err "tcp parse error" "parse_error"
            (match J.parse_opt (input_line ic) with
            | Ok v -> v
            | Error m -> Alcotest.failf "bad wire response: %s" m));
  ignore
    (expect_ok "tcp close"
       (ask [ ("verb", J.Str "close"); ("session", J.Str sid) ]));
  Unix.close fd;
  (* stop terminates: joins the accept loop and every connection *)
  Server.stop srv;
  Server.stop srv (* idempotent *)

(* ===== registration ===== *)

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "serve"
    [ ("json",
       [ Alcotest.test_case "roundtrip and escapes" `Quick test_json_roundtrip;
         Alcotest.test_case "malformed inputs" `Quick test_json_errors ]
       @ to_alcotest [ prop_json_roundtrip ]);
      ("protocol",
       [ Alcotest.test_case "lifecycle transcript" `Quick
           test_protocol_lifecycle;
         Alcotest.test_case "error paths" `Quick test_protocol_errors;
         Alcotest.test_case "legacy backend and jobs fields open fused"
           `Quick test_legacy_open_fields;
         Alcotest.test_case "Session.create serves fused only" `Quick
           test_session_fused_only;
         Alcotest.test_case "admission control" `Quick test_admission;
         Alcotest.test_case "budgets" `Quick test_budgets;
         Alcotest.test_case "fault containment" `Quick test_fault_containment
       ]);
      ("equivalence",
       [ Alcotest.test_case "served Turtle = offline Turtle (all backends)"
           `Quick test_serve_matches_offline;
         Alcotest.test_case "stepwise = one-shot execution" `Quick
           test_step_equals_execute ]);
      ("containment",
       to_alcotest [ prop_faulted_commit_leaves_store_identical ]
       @ [ Alcotest.test_case "stall under max_call_s (all backends)" `Quick
             test_stall_budget_containment ]);
      ("arena",
       [ Alcotest.test_case "Vec boundaries" `Quick test_vec_boundaries;
         Alcotest.test_case "Tree boundaries" `Quick test_tree_boundaries ]);
      ("observability",
       [ Alcotest.test_case "metrics verb and per-request tracing" `Quick
           test_metrics_verb;
         Alcotest.test_case "slow-query log" `Quick test_slow_query_log ]);
      ("transport",
       [ Alcotest.test_case "TCP roundtrip and shutdown" `Quick
           test_tcp_roundtrip ])
    ]
