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
   rollback path leans on (Vec.merge / Tree.restore at the i = size and
   empty-arena edges). *)

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

let fingerprint = Weblab_test_support.Append_oracle.arena_fingerprint

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
    | _ -> false);
  (* RFC 8259 §6: no leading zero, reported at the digit after it. *)
  List.iter
    (fun (s, offset) ->
      check_string
        (Printf.sprintf "leading zero in %S" s)
        (Printf.sprintf "at offset %d: leading zero in number" offset)
        (match J.parse s with
        | exception J.Parse_error m -> m
        | v -> "parsed: " ^ J.to_string v))
    [ ("01", 1); ("-01", 2); ("00", 1); ("01.5", 1); ("[1,007]", 4);
      ("{\"a\":-00e1}", 7) ];
  List.iter
    (fun (s, v) ->
      check_string (Printf.sprintf "%S parses" s) v (J.to_string (J.parse s)))
    [ ("0", "0"); ("-0", "0"); ("0.5", "0.5"); ("10", "10"); ("0e2", "0.0") ];
  (* Request strings are well-formed UTF-8 (RFC 8259 §8.1): a stray
     byte, an overlong, surrogate or out-of-range form, a cut sequence
     and a lone surrogate escape are errors at their offsets. *)
  List.iter
    (fun (s, want) ->
      check_string (Printf.sprintf "%S" s) want
        (match J.parse s with
        | exception J.Parse_error m -> m
        | v -> "parsed: " ^ J.to_string v))
    [ ("\"t\xff1\"", "at offset 2: ill-formed UTF-8");
      ("\"t2\\udc00\"", "at offset 9: unpaired low surrogate");
      ("[\"ok \xc3\xa9\",\"\xc0\xaf\"]", "at offset 10: ill-formed UTF-8");
      ("\"\xed\xa0\x80\"", "at offset 1: ill-formed UTF-8");
      ("\"\xf4\x90\x80\x80\"", "at offset 1: ill-formed UTF-8");
      ("\"ab\xe2\x82\"", "at offset 3: ill-formed UTF-8");
      ("{\"k\xf0\x9f\x90\":1}", "at offset 3: ill-formed UTF-8") ];
  check_bool "four-byte characters parse" true
    (J.parse "\"\xf0\x9f\x90\xab\xf4\x8f\xbf\xbf\"" = J.Str "\xf0\x9f\x90\xab\xf4\x8f\xbf\xbf");
  (* Arrays and objects nest at most 512 deep. *)
  let nested d = String.make d '[' ^ String.make d ']' in
  check_bool "512 deep parses" true (Result.is_ok (J.parse_opt (nested 512)));
  check_bool "513 deep fails" true (Result.is_error (J.parse_opt (nested 513)));
  check_bool "deep object fails" true
    (Result.is_error
       (J.parse_opt
          (String.concat "" (List.init 513 (fun _ -> "{\"a\":"))
          ^ "1" ^ String.make 513 '}')))

(* Well-formed UTF-8 text: mostly ASCII, with two-, three- and four-byte
   characters (none a surrogate). *)
let utf8_text size =
  let open Gen in
  let uchar =
    frequency
      [ (12, int_range 0 0x7F); (2, int_range 0x80 0x7FF);
        (1, int_range 0x800 0xD7FF); (1, int_range 0xE000 0xFFFF);
        (1, int_range 0x10000 0x10FFFF) ]
  in
  map
    (fun cps ->
      let b = Buffer.create 16 in
      List.iter (fun cp -> Buffer.add_utf_8_uchar b (Uchar.of_int cp)) cps;
      Buffer.contents b)
    (list_size size uchar)

(* print/parse identity over trees without floats (integral floats
   normalize to Int, so the generator sticks to the other constructors);
   strings are well-formed UTF-8, the only ones a request may carry *)
let json_arb =
  let open Gen in
  let key = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  let leaf =
    oneof
      [ return J.Null; map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) int;
        map
          (fun s -> J.Str s)
          (utf8_text (frequency [ (3, int_bound 12); (1, int_range 256 4096) ]))
      ]
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

(* String literals biased toward every byte the decoder treats
   specially: quotes, backslashes, control bytes, [\u] escapes (paired,
   lone-high, lone-low and bad-low surrogates, bad hex, truncation) and
   ill-formed UTF-8 (a stray byte, overlong, surrogate and out-of-range
   forms, a sequence cut short), between plain UTF-8 runs of up to a few
   KB.  Some lack the closing quote, some carry trailing input. *)
let gen_string_doc : string Gen.t =
  let open Gen in
  let hex4 = map (Printf.sprintf "%04x") (int_bound 0xFFFF) in
  let plain =
    map
      (String.map (fun c -> if c = '"' || c = '\\' || c < ' ' then 'x' else c))
      (utf8_text (frequency [ (3, int_bound 16); (1, int_range 512 6000) ]))
  in
  let valid =
    frequency
      [ (8, plain);
        ( 2,
          map
            (fun c -> "\\" ^ String.make 1 c)
            (oneofl [ '"'; '\\'; '/'; 'b'; 'f'; 'n'; 'r'; 't' ]) );
        (1, map (Printf.sprintf "\\u%04x") (int_bound 0xD7FF));
        (1, return "\\ud83d\\udc2b") ]
  in
  let hostile =
    frequency
      [ (4, valid);
        (1, return "\"");
        (1, map (String.make 1) (oneofl [ '\\'; '\000'; '\n'; '\t'; '\031' ]));
        (1, map (fun c -> "\\" ^ String.make 1 c) (oneofl [ 'q'; 'x'; '0'; 'U' ]));
        (1, map (fun h -> "\\u" ^ h) hex4);
        (1, map (fun h -> "\\ud800" ^ h) (oneofl [ ""; "x"; "\\n"; "\\u" ]));
        (1, map (fun h -> "\\udbff\\u" ^ h) hex4);
        (1, map (Printf.sprintf "\\u%04x") (int_range 0xDC00 0xDFFF));
        (1, oneofl [ "\\u12g4"; "\\u12"; "\\u"; "\\" ]);
        ( 1,
          oneofl
            [ "\xff"; "\x80"; "\xc0\xaf"; "\xc1\xbf"; "\xe0\x80\xaf";
              "\xed\xa0\x80"; "\xed\xbf\xbf"; "\xf0\x8f\xbf\xbf";
              "\xf4\x90\x80\x80"; "\xf5\x80\x80\x80"; "\xe2\x82";
              "\xf0\x9f\x90"; "\xc3" ] ) ]
  in
  bool >>= fun is_hostile ->
  map3
    (fun lead pieces close -> lead ^ "\"" ^ String.concat "" pieces ^ close)
    (oneofl [ ""; " "; "\n\t " ])
    (list_size (int_bound 10) (if is_hostile then hostile else valid))
    (if is_hostile then oneofl [ "\""; "\" "; "\"x"; ""; "\\" ]
     else oneofl [ "\""; "\" \n" ])

let prop_json_string_oracle =
  Test.make
    ~name:"JSON string decode = byte-at-a-time oracle (values, errors, offsets)"
    ~count:500
    (make ~print:(fun s -> Printf.sprintf "%S" s) gen_string_doc)
    (fun doc ->
      let got =
        match J.parse_opt doc with
        | Ok (J.Str v) -> Ok v
        | Ok v -> Error ("not a string: " ^ J.to_string v)
        | Error msg -> Error msg
      in
      got = Weblab_test_support.Oracle_json.parse_string_document doc)

(* ===== protocol helpers ===== *)

let rpc ctx fields =
  match J.parse_opt (Protocol.handle_line ctx (J.to_string (J.Obj fields))) with
  | Ok v -> v
  | Error msg -> Alcotest.failf "unparsable response: %s" msg

let rpc_line ctx line =
  match J.parse_opt (Protocol.handle_line ctx line) with
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

(* A request line nesting a million arrays is refused at the 513th
   bracket, long before its end, and the context keeps serving. *)
let test_deep_nesting_line () =
  let ctx = Protocol.make_ctx ~max_sessions:4 () in
  let line s =
    match J.parse_opt (Protocol.handle_line ctx s) with
    | Ok v -> v
    | Error m -> Alcotest.failf "unparsable response: %s" m
  in
  let d = 1_000_000 in
  let deep =
    "{\"verb\":\"stats\",\"x\":" ^ String.make d '[' ^ String.make d ']' ^ "}"
  in
  let t0 = Unix.gettimeofday () in
  ignore (expect_err "a 1M-deep line" "parse_error" (line deep));
  let dt = Unix.gettimeofday () -. t0 in
  check_bool (Printf.sprintf "refused in %.3f s, under 1 s" dt) true (dt < 1.);
  ignore (expect_ok "stats afterwards" (line "{\"verb\":\"stats\"}"))

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

(* ===== protocol: automatic session ids ===== *)

(* An [open] without a "session" field gets a name no session holds,
   whether a client chose it or boot restored it from a WAL. *)
let open_auto ctx =
  get_str "open" "session"
    (expect_ok "automatic open"
       (rpc ctx [ ("verb", J.Str "open"); ("units", J.Int 1) ]))

let test_auto_id_skips_client_ids () =
  let ctx = Protocol.make_ctx () in
  ignore
    (expect_ok "client-chosen s1"
       (rpc ctx
          [ ("verb", J.Str "open"); ("session", J.Str "s1"); ("units", J.Int 1) ]));
  let auto = open_auto ctx in
  check_bool "automatic id is not the client's" true (auto <> "s1");
  check_bool "a second automatic id is fresh too" true
    (not (List.mem (open_auto ctx) [ "s1"; auto ]));
  check_int "three live sessions" 3
    (get_int "stats" "live" (expect_ok "stats" (rpc ctx [ ("verb", J.Str "stats") ])))

let test_auto_id_after_restart () =
  let dir = Filename.temp_dir "weblab_serve_ids" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let first = open_auto (Protocol.make_ctx ~data_dir:dir ()) in
      (* The daemon stops without closing; the next boot restores it. *)
      let ctx = Protocol.make_ctx ~data_dir:dir () in
      check_bool "restored" true
        (List.mem_assoc first (Protocol.restore_sessions ctx));
      check_bool "automatic id skips the restored one" true
        (open_auto ctx <> first);
      check_int "both live" 2
        (get_int "stats" "live"
           (expect_ok "stats" (rpc ctx [ ("verb", J.Str "stats") ]))))

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

(* ===== client XML commits parse what they add ===== *)

(* [f ()] and the bytes it allocated: every minor word (which
   [Gc.minor_words] counts exactly, where [Gc.counters] leaves out what
   the current minor heap holds) plus the words allocated straight into
   the major heap (major words minus those the minor collector
   promoted). *)
let allocated_bytes f =
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  let v = f () in
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  ( v,
    (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
    *. float_of_int (Sys.word_size / 8) )

(* Sixteen growing states of 48 units each, every earlier unit echoed
   with the labels its commit reply gave it (s="ClientXml" and the
   reply's time), as xml-ingest clients send them.  The graft resumes
   after the units the last accepted state shares: the first two states
   parse whole (the empty document has no child to resume after, and
   every unit of the first state comes back labelled), and over the
   session the parser reads at most a quarter of the bytes received. *)
let test_client_xml_resumes () =
  let module T = Weblab_obs.Telemetry in
  let per = 48 and states = 16 in
  let counter name =
    match List.assoc_opt name (T.counters ()) with Some n -> n | None -> 0
  in
  let ctx = Protocol.make_ctx ~max_sessions:1 () in
  ignore
    (expect_ok "open"
       (rpc ctx
          [ ("verb", J.Str "open"); ("session", J.Str "g");
            ("scenario", J.Str "empty") ]));
  let times = Array.make (per * states) 0 in
  let unit b u =
    Printf.bprintf b "<MediaUnit id=\"g%d\"" u;
    if times.(u) > 0 then
      Printf.bprintf b " s=\"ClientXml\" t=\"%d\"" times.(u);
    Printf.bprintf b
      "><NativeContent>unit %d of a growing state, echoed with its \
       labels</NativeContent></MediaUnit>"
      u
  in
  T.set_level T.Counters;
  Fun.protect
    ~finally:(fun () -> T.set_level T.Off)
    (fun () ->
      let received = ref 0 and parsed = ref 0 in
      let line_bytes = ref 0 and scanned = ref 0 and ratios = ref [] in
      for k = 1 to states do
        let b = Buffer.create 65536 in
        Buffer.add_string b "<Resource id=\"r1\" s=\"Source\" t=\"0\">";
        for u = 0 to (k * per) - 1 do
          unit b u
        done;
        Buffer.add_string b "</Resource>";
        let xml = Buffer.contents b in
        let line =
          J.to_string
            (J.Obj
               [ ("verb", J.Str "commit"); ("session", J.Str "g");
                 ("xml", J.Str xml) ])
        in
        let b0 = counter "diff.graft.bytes"
        and p0 = counter "diff.graft.parsed"
        and s0 = counter "json.scanned" in
        let reply, allocated =
          allocated_bytes (fun () -> Protocol.handle_line ctx line)
        in
        let s1 = counter "json.scanned" - s0 in
        let reply =
          expect_ok
            (Printf.sprintf "state %d" k)
            (match J.parse_opt reply with
             | Ok v -> v
             | Error m -> Alcotest.failf "unparsable reply: %s" m)
        in
        let time = get_int "commit" "time" reply in
        check_int (Printf.sprintf "state %d: new nodes" k) (3 * per)
          (get_int "commit" "new_nodes" reply);
        let b1 = counter "diff.graft.bytes" - b0
        and p1 = counter "diff.graft.parsed" - p0 in
        check_int (Printf.sprintf "state %d: bytes received" k)
          (String.length xml) b1;
        if k <= 2 then begin
          check_int (Printf.sprintf "state %d parses whole" k) b1 p1;
          check_int (Printf.sprintf "state %d scans whole" k)
            (String.length line) s1
        end
        else
          ratios := (allocated /. float_of_int (String.length line)) :: !ratios;
        received := !received + b1;
        parsed := !parsed + p1;
        line_bytes := !line_bytes + String.length line;
        scanned := !scanned + s1;
        for u = (k - 1) * per to (k * per) - 1 do
          times.(u) <- time
        done
      done;
      if 4 * !parsed > !received then
        Alcotest.failf "parsed %d of %d bytes received (over 25%%)" !parsed
          !received;
      if 10 * !scanned > 3 * !line_bytes then
        Alcotest.failf "JSON-scanned %d of %d bytes received (over 30%%)"
          !scanned !line_bytes;
      let sorted = List.sort Float.compare !ratios in
      let median = List.nth sorted (List.length sorted / 2) in
      if median > 6. then
        Alcotest.failf
          "a resumed commit allocates %.2f times its line (median, over 6)"
          median)

(* The first index at or after [from] where [sub] occurs in [s]. *)
let find_sub s sub from =
  let k = String.length sub in
  let rec go i =
    if i + k > String.length s then raise Not_found
    else if String.sub s i k = sub then i
    else go (i + 1)
  in
  go from

(* ===== client XML: escape spelling and member order ===== *)

(* The UTF-8 characters of [s], each as (code point, its bytes). *)
let utf8_chars s =
  let rec go i acc =
    if i >= String.length s then List.rev acc
    else
      let d = String.get_utf_8_uchar s i in
      let n = Uchar.utf_decode_length d in
      go (i + n) ((Uchar.to_int (Uchar.utf_decode_uchar d), String.sub s i n) :: acc)
  in
  go 0 []

(* A legal JSON string body for [s] (well-formed UTF-8): character [i]
   is spelled by [pick i] as itself where JSON allows it, as a short
   escape, as [\u00XX] or [\uXXXX] in either case, or as a surrogate
   pair; a '>' is escaped more often than not. *)
let spell ~pick s =
  let b = Buffer.create (String.length s + (String.length s / 4)) in
  let u cp upper =
    Buffer.add_string b
      (Printf.sprintf (if upper then "\\u%04X" else "\\u%04x") cp)
  in
  List.iteri
    (fun i (cp, bytes) ->
      let k = pick i in
      let upper = k land 8 <> 0 in
      match cp with
      | 0x22 -> Buffer.add_string b (if k mod 3 = 0 then "\\u0022" else "\\\"")
      | 0x5C -> Buffer.add_string b (if k mod 3 = 0 then "\\u005c" else "\\\\")
      | 0x2F when k mod 3 = 0 -> Buffer.add_string b "\\/"
      | 0x0A when k mod 2 = 0 -> Buffer.add_string b "\\n"
      | cp when cp < 0x20 -> u cp upper
      | 0x3E when k mod 4 <> 0 -> u cp upper
      | cp when cp >= 0x10000 && k mod 2 = 0 ->
        let v = cp - 0x10000 in
        u (0xD800 lor (v lsr 10)) upper;
        u (0xDC00 lor (v land 0x3FF)) (not upper)
      | cp when k mod 5 = 0 && cp < 0x10000 -> u cp upper
      | _ -> Buffer.add_string b bytes)
    (utf8_chars s);
  Buffer.contents b

(* Twin sessions fed the same client states through request lines:
   [a]'s lines spell the body in random legal ways — the same spelling
   over a prefix shared with the last line, until a random cut — with
   the members in a random order, extra members and a repeated "xml"
   key; [b]'s lines are canonical [J.to_string]; [c]'s too, with the
   session's record dropped before every step, so it reads and parses
   every state whole.  Replies, Turtle and arenas agree after every
   step. *)
let spelling_case seed =
  let st = Random.State.make [| seed |] in
  let ctx = Protocol.make_ctx ~max_sessions:3 () in
  let line fields = J.to_string (J.Obj fields) in
  let send l =
    let r = Protocol.handle_line ctx l in
    (r, match J.parse_opt r with Ok v -> v | Error m -> J.Str m)
  in
  List.iter
    (fun sid ->
      ignore
        (send
           (line
              [ ("verb", J.Str "open"); ("session", J.Str sid);
                ("scenario", J.Str "empty") ])))
    [ "a"; "b"; "c" ];
  let session sid = Option.get (Registry.find ctx.Protocol.registry sid) in
  let doc sid = Option.get (Session.doc (session sid)) in
  let layout = 1 + Random.State.int st 5 in
  let steps = 4 + Random.State.int st 10 in
  let base = Random.State.bits st in
  let last = ref "" in
  let rec go k =
    k > steps
    ||
    let xml =
      let d = doc "a" in
      match Random.State.int st 6 with
      | 0 when !last <> "" && Tree.last_child d (Tree.root d) <> Tree.no_node ->
        Weblab_test_support.Graft_gen.resend ~last:!last d
      | _ -> Weblab_test_support.Graft_gen.client_state st ~layout ~step:k d
    in
    (* A corruption that cut a UTF-8 character has no legal spelling. *)
    if not (String.is_valid_utf_8 xml) then go (k + 1)
    else begin
      last := xml;
      same k xml && go (k + 1)
    end
  and same k xml =
    let canonical =
      line
        [ ("verb", J.Str "commit"); ("session", J.Str "b"); ("xml", J.Str xml) ]
    in
    let body =
      let cut = Random.State.int st (String.length xml + 1) in
      let fresh = Random.State.bits st in
      "\""
      ^ spell xml ~pick:(fun i ->
            Hashtbl.hash ((if i < cut then base else fresh), i))
      ^ "\""
    in
    let m k v = Printf.sprintf "%S:%s" k v in
    let verb = m "verb" "\"commit\"" and sess = m "session" "\"a\"" in
    let members =
      match Random.State.int st 5 with
      | 0 -> [ verb; sess; m "xml" body ]
      | 1 -> [ verb; m "xml" body; sess ]
      | 2 -> [ m "xml" body; verb; sess; m "extra" "[1,{\"k\":\"\\u00e9\"}]" ]
      | 3 -> [ sess; verb; m "xml" body; m "note" "null"; m "xml" "\"<Bogus/>\"" ]
      | _ -> [ verb; sess; m "xml" body; m "xml" "7" ]
    in
    let sep = if Random.State.bool st then "," else " ,\n " in
    let ra, va = send ("{" ^ String.concat sep members ^ "}") in
    let rb, _ = send canonical in
    let sc = session "c" in
    Session.with_lock sc (fun () -> Session.forget_accepted sc);
    let rc, _ =
      send
        (line
           [ ("verb", J.Str "commit"); ("session", J.Str "c"); ("xml", J.Str xml) ])
    in
    let turtle sid =
      fst
        (send
           (line
              [ ("verb", J.Str "query"); ("session", J.Str sid);
                ("kind", J.Str "turtle") ]))
    in
    let fp sid = fingerprint (doc sid) in
    (String.equal ra rb && String.equal rb rc
     || Test.fail_reportf "step %d: replies\n%s\n%s\n%s" k ra rb rc)
    && (J.str_member "error" va <> Some "parse_error"
        || Test.fail_reportf "step %d: a legal line did not parse: %s" k ra)
    && (String.equal (turtle "a") (turtle "b")
        && String.equal (turtle "b") (turtle "c")
        || Test.fail_reportf "step %d: Turtle differs" k)
    && (String.equal (fp "a") (fp "b") && String.equal (fp "b") (fp "c")
        || Test.fail_reportf "step %d: arenas differ" k)
  in
  go 1

let prop_spelling_and_order =
  Test.make
    ~name:
      "client XML: escape spelling and member order never change a commit \
       (replies, Turtle, arena; resumed and whole reads)"
    ~count:120
    (make ~print:string_of_int Gen.(int_bound 1_000_000_000))
    spelling_case

(* ===== client XML: nothing commits from a line that does not parse ===== *)

let test_unparsed_commits_nothing () =
  let module T = Weblab_obs.Telemetry in
  let counter name =
    match List.assoc_opt name (T.counters ()) with Some n -> n | None -> 0
  in
  let dir = Filename.temp_dir "weblab_serve_unparsed" "" in
  Fun.protect
    ~finally:(fun () ->
      T.set_level T.Off;
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let ctx = Protocol.make_ctx ~max_sessions:2 ~data_dir:dir () in
      let call fields = rpc ctx (("session", J.Str "p") :: fields) in
      ignore
        (expect_ok "open"
           (call [ ("verb", J.Str "open"); ("scenario", J.Str "empty") ]));
      let sess = Option.get (Registry.find ctx.Protocol.registry "p") in
      let wal = Protocol.wal_file dir "p" in
      let units = ref [] in
      let state extra =
        let b = Buffer.create 4096 in
        Buffer.add_string b "<Resource id=\"r1\" s=\"Source\" t=\"0\">";
        List.iter (Buffer.add_string b) !units;
        Buffer.add_string b extra;
        Buffer.add_string b "</Resource>";
        Buffer.contents b
      in
      let commit_line xml =
        J.to_string
          (J.Obj
             [ ("verb", J.Str "commit"); ("session", J.Str "p");
               ("xml", J.Str xml) ])
      in
      let grow k =
        let fresh =
          String.concat ""
            (List.init 8 (fun i ->
                 Printf.sprintf "<Unit id=\"u%d-%d\"><C>caf\xc3\xa9 %d</C></Unit>"
                   k i i))
        in
        let xml = state fresh in
        let r = expect_ok "commit" (rpc_line ctx (commit_line xml)) in
        let t = get_int "commit" "time" r in
        units :=
          !units
          @ List.init 8 (fun i ->
                Printf.sprintf
                  "<Unit id=\"u%d-%d\" s=\"ClientXml\" t=\"%d\"><C>caf\xc3\xa9 %d</C></Unit>"
                  k i t i)
      in
      grow 1;
      grow 2;
      grow 3;
      let snapshot () =
        ( fingerprint (Option.get (Session.doc sess)),
          J.to_string (expect_ok "stats" (call [ ("verb", J.Str "stats") ])),
          (Unix.stat wal).Unix.st_size )
      in
      let before = snapshot () and record = Session.accepted sess in
      check_bool "a record to resume from" true (Option.is_some record);
      let good = commit_line (state "<Unit id=\"z\"><C>tail</C></Unit>") in
      (* Most faults sit in the body's tail, past the record's last
         shared mark, or after the body. *)
      let at = String.length good - String.length "</Resource>\"}" in
      let insert ?(at = at) s =
        String.sub good 0 at ^ s ^ String.sub good at (String.length good - at)
      in
      (* A fault in the first batch of units: the line first differs
         from the record's there, well before the record's last mark. *)
      let diverge = find_sub good "u1-0" 0 + 4 in
      let faults =
        [ ("a truncation", String.sub good 0 (at + 3));
          ("a bad escape", insert "\\q");
          ("a raw control byte", insert "\x01");
          ("ill-formed UTF-8", insert "\xff");
          ("ill-formed UTF-8 before the last mark", insert ~at:diverge "\xff");
          ("a lone low surrogate", insert "\\udc00");
          ("an unterminated string", String.sub good 0 (String.length good - 2) ^ "}");
          ("trailing garbage", good ^ " x");
          ("garbage after the closing quote", String.sub good 0 (String.length good - 1) ^ " 1}") ]
      in
      List.iter
        (fun (what, l) ->
          ignore (expect_err what "parse_error" (rpc_line ctx l));
          check_bool (what ^ ": nothing changed") true (snapshot () = before);
          check_bool (what ^ ": the record stays") true
            (Session.accepted sess == record))
        faults;
      T.set_level T.Counters;
      let p0 = counter "diff.graft.parsed" and s0 = counter "json.scanned" in
      ignore (expect_ok "the next valid state" (rpc_line ctx good));
      let parsed = counter "diff.graft.parsed" - p0
      and scanned = counter "json.scanned" - s0 in
      check_bool
        (Printf.sprintf "it resumes: parsed %d, scanned %d of %d" parsed scanned
           (String.length good))
        true
        (parsed < String.length good / 2 && scanned < String.length good / 2))

(* ===== client XML states = offline blackbox run ===== *)

(* The span of the [n]-th (0-based) complete element named [tag], for
   states that must fail; units hold no nested unit. *)
let unit_span s tag n =
  let rec nth i from =
    let a = find_sub s ("<" ^ tag) from in
    let b = find_sub s ("</" ^ tag ^ ">") a + String.length tag + 3 in
    if i = 0 then (a, b) else nth (i - 1) b
  in
  nth n 0

let replace_first s ~sub ~by =
  let a = find_sub s sub 0 and k = String.length sub in
  String.sub s 0 a ^ by ^ String.sub s (a + k) (String.length s - a - k)

let media_unit d parent ?uri text =
  let u = Tree.new_element d ~parent "MediaUnit" in
  Option.iter (Tree.set_uri d u) uri;
  let c = Tree.new_element d ~parent:u "NativeContent" in
  ignore (Tree.new_text d ~parent:c text)

(* The scripted next states, each derived from the state the session
   holds: [`Edit] parses the current state and edits the copy, [`Text]
   rewrites the printed state.  A state that commits carries its
   (new nodes, promoted) counts. *)
let client_script =
  let nth_child d n k = List.nth (Tree.children d n) k in
  [ ( "units appended at the root", Some (9, 0),
      `Edit
        (fun d ->
          let r = Tree.root d in
          media_unit d r ~uri:"u1" "unit one";
          media_unit d r "unit two";
          media_unit d r "unit three") );
    ( "units deep inside matched nodes", Some (5, 0),
      `Edit
        (fun d ->
          let u1 = nth_child d (Tree.root d) 0 in
          let c = nth_child d u1 0 in
          let e = Tree.new_element d ~parent:c "Entity" in
          ignore (Tree.new_text d ~parent:e "Paris");
          media_unit d (nth_child d (Tree.root d) 1) "nested unit") );
    ( "promotion of a matched node", Some (0, 1),
      `Edit
        (fun d ->
          let u2 = nth_child d (Tree.root d) 1 in
          Tree.set_uri d (nth_child d u2 0) "promoted-content") );
    ( "extra attributes on matched nodes, with an append", Some (3, 0),
      `Edit
        (fun d ->
          let r = Tree.root d in
          Tree.set_attr d r "extra" "1";
          Tree.set_attr d (nth_child d r 0) "lang" "fr";
          media_unit d r "unit four") );
    ( "a new text sibling", Some (1, 0),
      `Edit (fun d -> ignore (Tree.new_text d ~parent:(Tree.root d) "tail note")) );
    ( "a removed child", None,
      `Text
        (fun s ->
          let a, b = unit_span s "MediaUnit" 1 in
          String.sub s 0 a ^ String.sub s b (String.length s - b)) );
    ( "a reordered pair", None,
      `Text
        (fun s ->
          let a, b = unit_span s "MediaUnit" 0 in
          let c, d = unit_span s "MediaUnit" 2 in
          String.sub s 0 a ^ String.sub s c (d - c) ^ String.sub s b (c - b)
          ^ String.sub s a (b - a)
          ^ String.sub s d (String.length s - d)) );
    ( "a changed text", None,
      `Text (replace_first ~sub:"unit one" ~by:"unit 1") );
    ( "a renamed root", None,
      `Text
        (fun s ->
          replace_first ~sub:"</Resource>" ~by:"</Root>"
            (replace_first ~sub:"<Resource" ~by:"<Root" s)) );
    ( "a truncated document", None,
      `Text (fun s -> String.sub s 0 (String.length s / 2)) );
    ( "an append after the failures", Some (3, 0),
      `Edit (fun d -> media_unit d (Tree.root d) "unit five") ) ]

let test_client_xml_matches_offline () =
  let policy = Session.default_budgets.Session.policy in
  let ctx = Protocol.make_ctx ~max_sessions:4 () in
  ignore
    (expect_ok "open"
       (rpc ctx
          [ ("verb", J.Str "open"); ("session", J.Str "x");
            ("scenario", J.Str "empty") ]));
  let call fields = rpc ctx (("session", J.Str "x") :: fields) in
  (* The states are derived from the document an offline run holds. *)
  let reference = Orchestrator.start ~policy (Orchestrator.initial_document ()) in
  let blackbox xml =
    Service.blackbox ~name:"ClientXml" ~description:"" (fun _ -> xml)
  in
  let states = ref [] in
  List.iteri
    (fun i (what, expected, edit) ->
      let time = i + 1 in
      let current = Printer.to_string (Orchestrator.session_doc reference) in
      let xml =
        match edit with
        | `Edit f ->
          let d = Xml_parser.parse current in
          f d;
          Printer.to_string d
        | `Text f -> f current
      in
      ignore (Orchestrator.step reference (blackbox xml));
      states := !states @ [ xml ];
      let reply = call [ ("verb", J.Str "commit"); ("xml", J.Str xml) ] in
      (* The offline run: the same states returned by plain blackbox
         services. *)
      let services = List.map blackbox !states in
      let deltas = Hashtbl.create 8 in
      let trace =
        Orchestrator.execute ~policy
          ~on_step:(fun c _ _ d -> Hashtbl.replace deltas c.Trace.time d)
          (Orchestrator.initial_document ()) services
      in
      (match Hashtbl.find_opt deltas time, Trace.outcome_at trace time with
       | Some d, _ ->
         check_bool (what ^ ": commits") true
           (expected
            = Some
                (List.length d.Orchestrator.new_nodes,
                 List.length d.Orchestrator.promoted));
         let r = expect_ok what reply in
         check_int (what ^ ": time") time (get_int what "time" r);
         check_int (what ^ ": new_nodes")
           (List.length d.Orchestrator.new_nodes)
           (get_int what "new_nodes" r);
         check_int (what ^ ": promoted")
           (List.length d.Orchestrator.promoted)
           (get_int what "promoted" r)
       | None, Some (Trace.Failed reason) ->
         check_bool (what ^ ": fails") true (expected = None);
         let r = expect_err what "commit_failed" reply in
         check_string (what ^ ": reason") reason (message r);
         check_int (what ^ ": time") time (get_int what "time" r)
       | None, _ -> Alcotest.failf "%s: no offline outcome" what);
      let exec, g =
        Engine.run_with_strategy ~policy ~jobs:1 `Fused
          (Orchestrator.initial_document ()) services full_rulebook
      in
      check_string (what ^ ": Turtle")
        (Engine.to_turtle ~trace:exec.Engine.trace g)
        (get_str what "turtle"
           (expect_ok "turtle" (call [ ("verb", J.Str "query"); ("kind", J.Str "turtle") ])));
      let st = expect_ok "stats" (call [ ("verb", J.Str "stats") ]) in
      let committed =
        List.length
          (List.filter
             (fun t -> Hashtbl.mem deltas t)
             (List.init time (fun k -> k + 1)))
      in
      List.iter
        (fun (field, want) ->
          check_int (Printf.sprintf "%s: stats %s" what field) want
            (get_int what field st))
        [ ("next_time", time + 1); ("commits", committed);
          ("failed", time - committed);
          ("doc_nodes", Tree.size exec.Engine.doc);
          ("resources", Prov_graph.label_count g);
          ("links", Prov_graph.size g) ])
    client_script;
  (* Every unconditional fault on a client-XML commit fails the call and
     leaves the graph's Turtle as it was; the clean state then commits. *)
  let a =
    Session.create ~id:"x-faults" ~backend:`Fused
      ~doc:(Orchestrator.initial_document ()) full_rulebook
  in
  let xml =
    let d =
      Xml_parser.parse
        (Printer.to_string
           (Orchestrator.session_doc
              (Orchestrator.start ~policy (Orchestrator.initial_document ()))))
    in
    media_unit d (Tree.root d) ~uri:"u1" "unit one";
    Printer.to_string d
  in
  let before = Prov_export.to_turtle (Session.graph a) in
  List.iter
    (fun fault ->
      let what = "client XML under " ^ Faulty.fault_name fault in
      (match
         Session.commit a
           (Faulty.with_fault ~stall_s:0.001 fault (Session.client_xml_service xml))
       with
       | Error (Session.Call_failed _) -> ()
       | Ok _ -> Alcotest.failf "%s: committed" what
       | Error _ -> Alcotest.failf "%s: wrong error" what);
      check_string (what ^ ": Turtle unchanged") before
        (Prov_export.to_turtle (Session.graph a)))
    hard_faults;
  (match Session.commit a (Session.client_xml_service xml) with
   | Ok { Session.new_nodes; _ } -> check_int "clean state commits" 3 new_nodes
   | Error _ -> Alcotest.fail "clean client XML state failed");
  ignore (Session.close a)

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
  (* the message carries both the index and the size *)
  (match Vec.get v 3 with
  | exception Invalid_argument msg ->
    check_bool "index and size in message" true
      (contains ~sub:"index 3" msg && contains ~sub:"(size 3)" msg)
  | _ -> Alcotest.fail "expected Invalid_argument");
  expect_invalid "get on empty" "Vec.get" (fun () ->
      Vec.get (Vec.create ~dummy:0) 0)

let test_tree_boundaries () =
  (* empty arena *)
  let doc = Tree.create () in
  let ck_empty = Tree.checkpoint doc in
  let root = Tree.new_element doc ~parent:Tree.no_node "Resource" in
  Tree.set_uri doc root "r1";
  Tree.restore doc ck_empty;
  check_int "restore to empty arena" 0 (Tree.size doc);
  check_bool "no root after restore" false (Tree.has_root doc);
  expect_invalid "restore of a closed checkpoint" "not open" (fun () ->
      Tree.restore doc ck_empty);
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
  (* a committed checkpoint cannot be rolled back later *)
  let ck = Tree.checkpoint doc in
  ignore (Tree.new_element doc ~parent:(Tree.root doc) "Kept");
  Tree.commit doc ck;
  let sz = Tree.size doc in
  expect_invalid "restore after commit" "not open" (fun () ->
      Tree.restore doc ck);
  check_int "commit keeps the appends" sz (Tree.size doc);
  (* a restore bumps the generation and the index refuses *)
  let idx = Index.build doc in
  let g1 = Tree.generation doc in
  let ck = Tree.checkpoint doc in
  ignore (Tree.new_element doc ~parent:(Tree.root doc) "Tmp");
  Tree.restore doc ck;
  check_bool "restore bumps generation" true (Tree.generation doc > g1);
  check_bool "index refuses after restore" false
    (Index.extend idx doc)

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

(* The request line is bounded: a line of exactly the cap is read (and
   answered as the garbage it is), one byte more gets a typed
   [request_too_large] reply and the connection is closed, and the
   daemon goes on serving other clients. *)
let test_tcp_oversized_line () =
  let ctx = Protocol.make_ctx ~max_sessions:4 () in
  let srv = Server.start ~port:0 ctx in
  let connect () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
    (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  in
  let reply ic =
    match J.parse_opt (input_line ic) with
    | Ok v -> v
    | Error m -> Alcotest.failf "bad wire response: %s" m
  in
  let stats = J.to_string (J.Obj [ ("verb", J.Str "stats") ]) ^ "\n" in
  let fd, ic, oc = connect () in
  output_string oc (String.make Server.max_request_bytes 'x');
  output_char oc '\n';
  flush oc;
  ignore (expect_err "a line of exactly the cap is read" "parse_error" (reply ic));
  output_string oc stats;
  flush oc;
  ignore (expect_ok "the connection survives" (reply ic));
  output_string oc (String.make (Server.max_request_bytes + 1) 'x');
  flush oc;
  ignore (expect_err "one byte over the cap" "request_too_large" (reply ic));
  check_bool "the connection is closed" true
    (match input_line ic with _ -> false | exception End_of_file -> true);
  Unix.close fd;
  let fd, ic, oc = connect () in
  output_string oc stats;
  flush oc;
  ignore (expect_ok "a second client is served" (reply ic));
  Unix.close fd;
  Server.stop srv

(* Request lines across the reader's 64 KiB blocks: client-XML commits
   padded so their newline falls at offsets 65535, 65536 and 65537, and
   at 2 × 65536 ± 1, of a fresh connection; a line that starts just past
   a block boundary, after a line of exactly 65536 bytes; a line written
   in several pieces; and a last line without a newline before EOF.  Each
   commit goes to a session of its own, and each reply must be
   byte-identical to [Protocol.handle_line] of the same line on a twin
   registry. *)
let test_tcp_block_boundaries () =
  let ctx = Protocol.make_ctx ~max_sessions:16 () in
  let twin = Protocol.make_ctx ~max_sessions:16 () in
  let srv = Server.start ~port:0 ctx in
  let sessions = ref 0 in
  (* a commit line of exactly [n] bytes, to a freshly opened session *)
  let commit n =
    incr sessions;
    let sid = Printf.sprintf "b%d" !sessions in
    let opening =
      J.to_string
        (J.Obj
           [ ("verb", J.Str "open"); ("session", J.Str sid);
             ("scenario", J.Str "empty") ])
    in
    ignore (expect_ok "open" (rpc_line ctx opening));
    ignore (expect_ok "twin open" (rpc_line twin opening));
    let line pad =
      J.to_string
        (J.Obj
           [ ("verb", J.Str "commit"); ("session", J.Str sid);
             ( "xml",
               J.Str
                 (Printf.sprintf
                    "<Resource id=\"r1\" s=\"Source\" t=\"0\"><MediaUnit \
                     id=\"u1\"><NativeContent>%s</NativeContent></MediaUnit></Resource>"
                    (String.make pad 'x')) ) ])
    in
    let l = line (n - String.length (line 0)) in
    check_int "line length" n (String.length l);
    l
  in
  let connect () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
    (fd, Unix.in_channel_of_descr fd)
  in
  let send fd s = ignore (Unix.write_substring fd s 0 (String.length s)) in
  let expect_replies what ic lines =
    List.iter
      (fun l ->
        let expected = Protocol.handle_line twin l in
        check_string what expected (input_line ic);
        match J.parse_opt expected with
        | Ok v -> ignore (expect_ok what v)
        | Error m -> Alcotest.failf "%s: unparsable reply: %s" what m)
      lines
  in
  (* one line per connection, its newline at offset [n] *)
  List.iter
    (fun n ->
      let fd, ic = connect () in
      let l = commit n in
      send fd (l ^ "\n");
      expect_replies (Printf.sprintf "newline at %d" n) ic [ l ];
      Unix.close fd)
    [ 65535; 65536; 65537; (2 * 65536) - 1; (2 * 65536) + 1 ];
  (* the second line starts one byte into the second block *)
  let fd, ic = connect () in
  let a = commit 65536 and b = commit 70000 in
  send fd (a ^ "\n" ^ b ^ "\n");
  expect_replies "after a line of 65536 bytes" ic [ a; b ];
  Unix.close fd;
  (* one line in pieces, cut around the first block's end and with the
     newline written alone *)
  let fd, ic = connect () in
  let l = commit 100_000 ^ "\n" in
  ignore
    (List.fold_left
       (fun from cut ->
         send fd (String.sub l from (cut - from));
         Unix.sleepf 0.002;
         cut)
       0
       [ 1; 4096; 65535; 65536; 65537; 99_999; 100_000; 100_001 ]);
  expect_replies "a line in several writes" ic [ String.sub l 0 100_000 ];
  Unix.close fd;
  (* the last line of the input has no newline *)
  let fd, ic = connect () in
  let l = commit 70000 in
  send fd l;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  expect_replies "a last line without a newline" ic [ l ];
  check_bool "then the connection ends" true
    (match input_line ic with _ -> false | exception End_of_file -> true);
  Unix.close fd;
  Server.stop srv

(* Many clients at once over TCP, in the shape of a small served
   workload: 32 client threads each open a session (units 2, seed 42),
   commit a four-call chain pipeline with a why and an impact query after
   every commit, and close with a Turtle export that must equal the
   offline run of each of the four backends.  Then a group of clients
   races to open one id: exactly one wins, the rest get [already_open].
   Every reply must be ok, and the registry must end empty. *)
let test_concurrent_tcp_clients () =
  let sessions = 32 and racers = 8 in
  let units = 2 and seed = 42 in
  let services = Workload.chain_pipeline 4 in
  let reference =
    List.map
      (fun kind ->
        let doc = Workload.make_document ~units ~seed () in
        let exec, g =
          Engine.run_with_strategy ~jobs:1 kind doc services full_rulebook
        in
        (kind, Engine.to_turtle ~trace:exec.Engine.trace g))
      Strategy.all
  in
  let ctx = Protocol.make_ctx ~max_sessions:(sessions * 2) () in
  let srv = Server.start ~port:0 ctx in
  let failures = ref [] and failures_lock = Mutex.create () in
  let fail fmt =
    Printf.ksprintf
      (fun m -> Mutex.protect failures_lock (fun () -> failures := m :: !failures))
      fmt
  in
  let connect () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
    let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
    let ask fields =
      output_string oc (J.to_string (J.Obj fields));
      output_char oc '\n';
      flush oc;
      match J.parse_opt (input_line ic) with
      | Ok v -> v
      | Error m -> failwith ("unparsable response: " ^ m)
    in
    (fd, ask)
  in
  let guarded name f () =
    try f () with e -> fail "%s: %s" name (Printexc.to_string e)
  in
  let client i () =
    let fd, ask = connect () in
    let sid = Printf.sprintf "c-%d" i in
    let ok fields =
      let v = ask fields in
      if not (is_ok v) then fail "%s: not ok: %s" sid (J.to_string v);
      v
    in
    ignore
      (ok [ ("verb", J.Str "open"); ("session", J.Str sid);
            ("units", J.Int units); ("seed", J.Int seed) ]);
    List.iter
      (fun svc ->
        ignore
          (ok [ ("verb", J.Str "commit"); ("session", J.Str sid);
                ("service", J.Str (Service.name svc)) ]);
        List.iter
          (fun kind ->
            ignore
              (ok [ ("verb", J.Str "query"); ("session", J.Str sid);
                    ("kind", J.Str kind); ("uri", J.Str "mu1") ]))
          [ "why"; "impact" ])
      services;
    let closed =
      ok [ ("verb", J.Str "close"); ("session", J.Str sid);
           ("turtle", J.Bool true) ]
    in
    (match J.str_member "turtle" closed with
     | Some turtle ->
       List.iter
         (fun (kind, expected) ->
           if not (String.equal turtle expected) then
             fail "%s: Turtle differs from the %s offline run" sid
               (Strategy.kind_to_string kind))
         reference
     | None -> fail "%s: close returned no Turtle" sid);
    Unix.close fd
  in
  List.init sessions (fun i ->
      Thread.create (guarded (Printf.sprintf "client %d" i) (client i)) ())
  |> List.iter Thread.join;
  let opened = Atomic.make 0 and refused = Atomic.make 0 in
  let racer i () =
    let fd, ask = connect () in
    let v = ask [ ("verb", J.Str "open"); ("session", J.Str "race") ] in
    (if is_ok v then Atomic.incr opened
     else if J.str_member "error" v = Some "already_open" then
       Atomic.incr refused
     else fail "racer %d: %s" i (J.to_string v));
    Unix.close fd
  in
  List.init racers (fun i ->
      Thread.create (guarded (Printf.sprintf "racer %d" i) (racer i)) ())
  |> List.iter Thread.join;
  ignore
    (expect_ok "close race"
       (rpc ctx [ ("verb", J.Str "close"); ("session", J.Str "race") ]));
  Server.stop srv;
  (match !failures with
   | [] -> ()
   | l -> Alcotest.failf "%d failures:\n%s" (List.length l)
            (String.concat "\n" (List.rev l)));
  check_int "one racer opens" 1 (Atomic.get opened);
  check_int "the others are already_open" (racers - 1) (Atomic.get refused);
  check_int "no live session left" 0
    (get_int "stats" "live" (expect_ok "stats" (rpc ctx [ ("verb", J.Str "stats") ])))

(* ===== registration ===== *)

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "serve"
    [ ("json",
       [ Alcotest.test_case "roundtrip and escapes" `Quick test_json_roundtrip;
         Alcotest.test_case "malformed inputs" `Quick test_json_errors ]
       @ to_alcotest [ prop_json_roundtrip; prop_json_string_oracle ]);
      ("protocol",
       [ Alcotest.test_case "lifecycle transcript" `Quick
           test_protocol_lifecycle;
         Alcotest.test_case "error paths" `Quick test_protocol_errors;
         Alcotest.test_case "deep nesting is a parse error" `Quick
           test_deep_nesting_line;
         Alcotest.test_case "legacy backend and jobs fields open fused"
           `Quick test_legacy_open_fields;
         Alcotest.test_case "Session.create serves fused only" `Quick
           test_session_fused_only;
         Alcotest.test_case "admission control" `Quick test_admission;
         Alcotest.test_case "automatic id skips a client-chosen one" `Quick
           test_auto_id_skips_client_ids;
         Alcotest.test_case "automatic id after restart" `Quick
           test_auto_id_after_restart;
         Alcotest.test_case "budgets" `Quick test_budgets;
         Alcotest.test_case "fault containment" `Quick test_fault_containment;
         Alcotest.test_case "client XML states = offline blackbox run" `Quick
           test_client_xml_matches_offline;
         Alcotest.test_case "client XML commits parse what they add" `Quick
           test_client_xml_resumes;
         Alcotest.test_case "client XML: nothing commits from an unparsed line"
           `Quick test_unparsed_commits_nothing
       ]
       @ to_alcotest [ prop_spelling_and_order ]);
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
           test_tcp_roundtrip;
         Alcotest.test_case "oversized request line" `Quick
           test_tcp_oversized_line;
         Alcotest.test_case "request lines across block boundaries" `Quick
           test_tcp_block_boundaries;
         Alcotest.test_case "concurrent TCP clients" `Quick
           test_concurrent_tcp_clients ])
    ]
