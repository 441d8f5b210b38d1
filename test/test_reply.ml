(* Streamed replies: the protocol writes every reply through one JSON
   writer that drains a fixed-size stage, SPARQL rows come from the
   query's id rows and Turtle is escaped into the reply as it renders.
   These tests pin that the bytes are the ones the tree-built replies
   had:

   - a golden transcript of every reply kind, generated before replies
     streamed, reproduced byte for byte by [handle_line] and by the
     writer at stage sizes down to one byte;
   - a qcheck property over random sessions, random BGPs (repeated
     variables, unknown constants) and random stage sizes: the streamed
     bytes equal [Json.to_string] of the {!Oracle_reply} tree;
   - the slow-query log keeps its [rows] and [turtle_bytes] detail;
   - a bad query leaves no partial line: its reply is exactly one
     [query_error] line, on the wire too. *)

open Weblab_server
open Weblab_test_support
open QCheck
module J = Json
module Sink = Weblab_rdf.Sink
module Term = Weblab_rdf.Term
module Triple_store = Weblab_rdf.Triple_store

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* What [write_line] puts into a writer whose stage holds [size] bytes. *)
let streamed ctx size line =
  let buf = Buffer.create 256 in
  let w = Sink.create ~size (Buffer.add_subbytes buf) in
  Protocol.write_line ctx line w;
  Sink.flush w;
  Buffer.contents buf

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let golden_path name =
  let staged = Filename.concat "golden" name in
  if Sys.file_exists staged then staged else Filename.concat "test/golden" name

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* ===== golden transcript ===== *)

(* test/golden/serve_transcript.txt holds request lines ("> "), each
   followed by its reply ("< "), and "# restart" where a fresh context
   restores the persisted sessions from the same data directory.  It was
   written by [handle_line] while replies were still built as one JSON
   tree; it covers open, commits (one failing), why, impact, SPARQL with
   FILTER, ORDER BY, LIMIT, DISTINCT and SELECT *, ASK and prefix errors,
   Turtle queries, stats, close with Turtle, and a restored session's
   Turtle, with and without request ids. *)
let replay_transcript answer =
  let lines =
    String.split_on_char '\n' (read_file (golden_path "serve_transcript.txt"))
  in
  let dir = Filename.temp_dir "weblab_reply" "" in
  let ctx = ref (Protocol.make_ctx ~data_dir:dir ()) in
  let rec go n = function
    | "# restart" :: rest ->
      ctx := Protocol.make_ctx ~data_dir:dir ();
      ignore (Protocol.restore_sessions !ctx);
      go n rest
    | req :: reply :: rest when String.starts_with ~prefix:"> " req ->
      let req = String.sub req 2 (String.length req - 2) in
      check_bool "reply line follows" true (String.starts_with ~prefix:"< " reply);
      check_string req
        (String.sub reply 2 (String.length reply - 2))
        (answer !ctx req);
      go (n + 1) rest
    | [ "" ] | [] -> n
    | l :: _ -> Alcotest.failf "unexpected transcript line %S" l
  in
  let n = Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> go 0 lines) in
  check_bool "transcript replayed" true (n > 40)

let test_golden_handle_line () = replay_transcript Protocol.handle_line

let test_golden_streamed () =
  List.iter (fun size -> replay_transcript (fun ctx -> streamed ctx size)) [ 1; 7; 4096 ]

(* ===== streamed = tree-built ===== *)

let services = Array.of_list Weblab_services.Catalog.service_names

(* A SPARQL term for [t], when the query syntax can spell it. *)
let spell = function
  | Term.Iri s -> Some ("<" ^ s ^ ">")
  | Term.Lit (s, _) when not (String.exists (fun c -> c = '"' || c = '\\') s) ->
    Some ("\"" ^ s ^ "\"")
  | Term.Lit _ | Term.Bnode _ -> None

(* A random query over [st]: a BGP of one to three patterns whose
   positions are variables from a pool of three (so repeats happen),
   terms of a random stored triple, or constants the store has never
   seen; then random FILTERs, ORDER BY, DISTINCT, projection and LIMIT.
   Now and then an ASK or a query with an unknown prefix, which must
   fail the same way. *)
let random_query rs st =
  let pick l = List.nth l (Random.State.int rs (List.length l)) in
  let triples = Array.of_list (Triple_store.triples st) in
  let var () = "?" ^ pick [ "a"; "b"; "c" ] in
  let position term =
    match Random.State.int rs 10 with
    | 0 -> pick [ "<http://example.org/unknown>"; "\"nope\"" ]
    | 1 | 2 | 3 | 4 -> var ()
    | _ -> (match spell term with Some s -> s | None -> var ())
  in
  let pattern () =
    if Array.length triples = 0 then Printf.sprintf "%s %s %s" (var ()) (var ()) (var ())
    else
      let s, p, o = triples.(Random.State.int rs (Array.length triples)) in
      Printf.sprintf "%s %s %s" (position s) (position p) (position o)
  in
  let bgp =
    String.concat " . " (List.init (1 + Random.State.int rs 3) (fun _ -> pattern ()))
  in
  let filters =
    List.init (Random.State.int rs 3) (fun _ ->
        Printf.sprintf " . FILTER(%s %s %s)" (var ())
          (pick [ "="; "!="; "<"; "<="; ">"; ">=" ])
          (pick [ var (); "\"r5\""; "3"; "\"Normaliser\"" ]))
  in
  let where = "{ " ^ bgp ^ String.concat "" filters ^ " }" in
  match Random.State.int rs 12 with
  | 0 -> "ASK " ^ where
  | 1 -> "SELECT ?x WHERE { ?x nope:p ?y }"
  | _ ->
    let proj =
      if Random.State.bool rs then "*"
      else String.concat " " (List.init (1 + Random.State.int rs 3) (fun _ -> pick [ var (); "?z" ]))
    in
    (* SELECT repeats no variable *)
    let proj =
      if proj = "*" then proj
      else String.concat " " (List.sort_uniq compare (String.split_on_char ' ' proj))
    in
    let distinct = if Random.State.bool rs then "DISTINCT " else "" in
    let order =
      match Random.State.int rs 4 with
      | 0 -> Printf.sprintf " ORDER BY %s" (var ())
      | 1 -> Printf.sprintf " ORDER BY DESC(%s)" (var ())
      | 2 -> Printf.sprintf " ORDER BY ASC %s" (pick [ var (); "?z" ])
      | _ -> ""
    in
    let limit =
      if Random.State.bool rs then Printf.sprintf " LIMIT %d" (Random.State.int rs 12) else ""
    in
    Printf.sprintf "SELECT %s%s WHERE %s%s%s" distinct proj where order limit

type case = {
  units : int;
  doc_seed : int;
  calls : int list;  (** indices into the catalog *)
  queries : int;  (** query seed *)
  size : int;  (** the writer's stage size *)
  ids : bool;  (** whether requests carry an id *)
}

let gen_case =
  Gen.(
    map
      (fun ((units, doc_seed, calls), (queries, size, ids)) ->
        { units; doc_seed; calls; queries; size; ids })
      (pair
         (triple (int_range 1 3) (int_range 0 50)
            (list_size (int_range 0 5) (int_range 0 (Array.length services - 1))))
         (triple int
            (frequency [ (3, int_range 1 8); (2, int_range 9 300); (1, return Sink.chunk) ])
            bool)))

let print_case c =
  Printf.sprintf "units=%d seed=%d calls=[%s] queries=%d size=%d ids=%b" c.units
    c.doc_seed
    (String.concat ";" (List.map (fun i -> services.(i)) c.calls))
    c.queries c.size c.ids

let prop_streamed_equals_tree =
  Test.make ~name:"streamed reply = tree-built reply" ~count:100
    (make ~print:print_case gen_case) (fun c ->
      let ctx = Protocol.make_ctx () in
      let n = ref 0 in
      let line fields =
        incr n;
        let fields = if c.ids then ("id", J.Int !n) :: fields else fields in
        (J.Obj fields, J.to_string (J.Obj fields))
      in
      let agree (req, l) oracle =
        let got = streamed ctx c.size l in
        let want = J.to_string oracle in
        if not (String.equal got want) then
          Test.fail_reportf "request %s\nstreamed %s\noracle   %s" (J.to_string req) got want
      in
      let verb v rest = ("verb", J.Str v) :: ("session", J.Str "p") :: rest in
      ignore
        (Protocol.handle_line ctx
           (snd (line (verb "open" [ ("units", J.Int c.units); ("seed", J.Int c.doc_seed) ]))));
      List.iter
        (fun i ->
          ignore
            (Protocol.handle_line ctx
               (snd (line (verb "commit" [ ("service", J.Str services.(i)) ])))))
        c.calls;
      let sess = Option.get (Registry.find ctx.Protocol.registry "p") in
      let store () = Session.with_lock sess (fun () -> Session.store sess) in
      let rs = Random.State.make [| c.queries |] in
      for _ = 1 to 10 do
        if Random.State.int rs 4 = 0 then begin
          let r = line (verb "query" [ ("kind", J.Str "turtle") ]) in
          agree r (Oracle_reply.turtle (fst r) (store ()))
        end
        else begin
          let q = random_query rs (store ()) in
          let r = line (verb "query" [ ("kind", J.Str "sparql"); ("query", J.Str q) ]) in
          agree r (Oracle_reply.sparql (fst r) (store ()))
        end
      done;
      let r = line (verb "close" [ ("turtle", J.Bool (Random.State.bool rs)) ]) in
      let got = streamed ctx c.size (snd r) in
      let want =
        J.to_string
          (Session.with_lock sess (fun () ->
               Oracle_reply.close (fst r) (Session.stats sess) (Session.store sess)))
      in
      if not (String.equal got want) then
        Test.fail_reportf "close\nstreamed %s\noracle   %s" got want;
      true)

(* ===== the slow-query log ===== *)

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

let parse_ok what s =
  match J.parse_opt s with
  | Ok v ->
    check_bool (what ^ " ok") true (J.bool_member "ok" v = Some true);
    v
  | Error m -> Alcotest.failf "%s: unparsable reply (%s)" what m

(* Streaming moved the row count and the Turtle length out of any reply
   tree; the log must still carry both, equal to what the reply holds. *)
let test_slow_log_detail () =
  with_recorder (fun () ->
      let path = Filename.temp_file "weblab_slow" ".jsonl" in
      let ctx = Protocol.make_ctx ~slow_log_path:path ~slow_ms:0. () in
      let ask fields = Protocol.handle_line ctx (J.to_string (J.Obj fields)) in
      let verb v rest = ("verb", J.Str v) :: ("session", J.Str "s") :: rest in
      ignore (parse_ok "open" (ask (verb "open" [ ("units", J.Int 2) ])));
      ignore (parse_ok "commit" (ask (verb "commit" [ ("service", J.Str "Normaliser") ])));
      let q =
        parse_ok "sparql"
          (ask
             (verb "query"
                [ ("kind", J.Str "sparql");
                  ("query", J.Str "SELECT ?s ?o WHERE { ?s prov:used ?o }") ]))
      in
      let t = parse_ok "turtle" (ask (verb "query" [ ("kind", J.Str "turtle") ])) in
      let c = parse_ok "close" (ask (verb "close" [ ("turtle", J.Bool true) ])) in
      let lines =
        String.split_on_char '\n' (read_file path) |> List.filter (fun l -> l <> "")
      in
      Sys.remove path;
      check_int "one record per request" 5 (List.length lines);
      let records = List.map J.parse lines in
      let rows = Option.get (Option.bind (J.member "rows" q) J.to_list) in
      let turtle_len v = String.length (Option.get (J.str_member "turtle" v)) in
      (match records with
      | [ _; _; rq; rt; rc ] ->
        check_bool "sparql has rows" true (List.length rows > 0);
        check_bool "sparql record carries rows" true
          (J.int_member "rows" rq = Some (List.length rows));
        check_bool "turtle record carries turtle_bytes" true
          (J.int_member "turtle_bytes" rt = Some (turtle_len t));
        check_bool "close record carries turtle_bytes" true
          (J.int_member "turtle_bytes" rc = Some (turtle_len c));
        check_string "close record names the session" "s"
          (Option.get (J.str_member "session" rc))
      | _ -> Alcotest.fail "expected five records"))

(* ===== no partial line ===== *)

let bad_query = {|{"id":1,"verb":"query","session":"s","kind":"sparql","query":"SELECT ?x WHERE { ?x nope:p ?y }"}|}

let bad_reply =
  {|{"id":1,"ok":false,"error":"query_error","message":"unknown prefix nope:"}|}

(* An error is decided before the reply's first byte, so even a writer
   that drains every byte holds exactly the error reply. *)
let test_bad_query_one_line () =
  let ctx = Protocol.make_ctx () in
  ignore (Protocol.handle_line ctx {|{"verb":"open","session":"s","units":1}|});
  ignore (Protocol.handle_line ctx {|{"verb":"commit","session":"s","service":"Normaliser"}|});
  check_string "one-byte stage" bad_reply (streamed ctx 1 bad_query);
  check_string "default stage" bad_reply (Protocol.handle_line ctx bad_query);
  (* On the wire: exactly one line, then the connection goes on. *)
  let srv = Server.start ~port:0 ctx in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      output_string oc (bad_query ^ "\n");
      output_string oc {|{"id":2,"verb":"query","session":"s","kind":"turtle"}|};
      output_string oc "\n";
      flush oc;
      check_string "wire: the error line" bad_reply (input_line ic);
      let next = input_line ic in
      check_bool "wire: the next reply is whole" true
        (String.starts_with ~prefix:{|{"id":2,"ok":true,"turtle":"@prefix|} next
        && Result.is_ok (J.parse_opt next));
      Unix.close fd)

let () =
  Alcotest.run "reply"
    [ ( "golden",
        [ Alcotest.test_case "transcript through handle_line" `Quick
            test_golden_handle_line;
          Alcotest.test_case "transcript through small stages" `Quick
            test_golden_streamed ] );
      ("oracle", [ QCheck_alcotest.to_alcotest prop_streamed_equals_tree ]);
      ( "errors",
        [ Alcotest.test_case "slow log keeps rows and turtle_bytes" `Quick
            test_slow_log_detail;
          Alcotest.test_case "a bad query is one error line" `Quick
            test_bad_query_one_line ] ) ]
