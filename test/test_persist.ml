(* Persistence and the columnar/oracle equivalence laws.

   Three layers:
   - Wal framing: roundtrip, staged-but-uncommitted records dropped,
     reset, metadata, compaction, and the crash-consistency law — a log
     truncated at ANY byte length replays to exactly one of the
     commit-boundary snapshots (prefix consistency at commit
     granularity), never a partial batch.
   - Store equivalence: qcheck agreement between {!Triple_store} and the
     boxed {!Oracle_store} it replaced — same [find]/[count] on every
     pattern shape, same [query] tables under random BGPs, and
     byte-identical Turtle/N-Triples.
   - Warm restart through the protocol: a daemon context with a
     [data_dir] persists sessions per commit; a second context restores
     them read-only with byte-identical Turtle, and committing to a
     restored session reports [read_only]. *)

open Weblab_rdf
open Weblab_test_support
open Weblab_server
open QCheck
module J = Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let iri = Term.iri
let lit = Term.lit

let fresh_dir =
  let k = ref 0 in
  fun () ->
    incr k;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "weblab_persist_%d_%d" (Unix.getpid ()) !k)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let fresh_wal () = Filename.concat (fresh_dir ()) "t.wal"

(* A small deterministic triple batch: b distinguishes batches. *)
let batch b n =
  List.init n (fun i ->
      ( iri (Printf.sprintf "e:%d-%d" b i),
        iri "p:link",
        if i mod 2 = 0 then iri (Printf.sprintf "e:%d-%d" b (i + 1))
        else lit (Printf.sprintf "v%d-%d" b i) ))

(* ===== Wal framing ===== *)

let test_wal_roundtrip () =
  let path = fresh_wal () in
  let st = Triple_store.create () in
  let w = Wal.open_writer path in
  Wal.log_meta w ~key:"backend" ~value:"incremental";
  List.iter
    (fun tr ->
      Triple_store.add st tr;
      Wal.log_triple w tr)
    (batch 0 7);
  Wal.commit w ~store_size:(Triple_store.size st);
  Wal.log_meta w ~key:"commits" ~value:"1";
  List.iter
    (fun tr ->
      Triple_store.add st tr;
      Wal.log_triple w tr)
    (batch 1 5);
  Wal.commit w ~store_size:(Triple_store.size st);
  Wal.close_writer w;
  let st', rp = Wal.replay path in
  check_int "commits" 2 rp.Wal.rp_commits;
  check_bool "not torn" false rp.Wal.rp_torn;
  check_string "bytes" (Turtle.to_ntriples st) (Turtle.to_ntriples st');
  check_string "meta backend" "incremental"
    (List.assoc "backend" rp.Wal.rp_meta);
  check_string "meta commits" "1" (List.assoc "commits" rp.Wal.rp_meta)

let test_wal_missing_and_uncommitted () =
  let st, rp = Wal.replay (Filename.concat (fresh_dir ()) "absent.wal") in
  check_int "missing file = empty" 0 (Triple_store.size st);
  check_int "no commits" 0 rp.Wal.rp_commits;
  (* Staged records are dropped by close: they were never durable. *)
  let path = fresh_wal () in
  let w = Wal.open_writer path in
  List.iter (Wal.log_triple w) (batch 0 4);
  Wal.commit w ~store_size:4;
  List.iter (Wal.log_triple w) (batch 1 3);
  (* no commit *)
  Wal.close_writer w;
  let st, rp = Wal.replay path in
  check_int "only the committed batch" 4 (Triple_store.size st);
  check_int "one commit" 1 rp.Wal.rp_commits;
  check_bool "clean tail" false rp.Wal.rp_torn

let test_wal_reset () =
  let path = fresh_wal () in
  let w = Wal.open_writer path in
  List.iter (Wal.log_triple w) (batch 0 4);
  Wal.commit w ~store_size:4;
  Wal.log_reset w;
  List.iter (Wal.log_triple w) (batch 1 3);
  Wal.commit w ~store_size:3;
  Wal.close_writer w;
  let st, rp = Wal.replay path in
  check_int "post-reset size" 3 (Triple_store.size st);
  check_int "resets" 1 rp.Wal.rp_resets;
  let expect = Triple_store.create () in
  List.iter (Triple_store.add expect) (batch 1 3);
  check_string "post-reset bytes" (Turtle.to_ntriples expect)
    (Turtle.to_ntriples st)

let test_wal_compact () =
  let path = fresh_wal () in
  let st = Triple_store.create () in
  let w = Wal.open_writer path in
  for b = 0 to 9 do
    List.iter
      (fun tr ->
        Triple_store.add st tr;
        Wal.log_triple w tr)
      (batch b 10);
    Wal.commit w ~store_size:(Triple_store.size st)
  done;
  Wal.close_writer w;
  let long = (Unix.stat path).Unix.st_size in
  Wal.compact_to path ~meta:[ ("backend", "online") ] st;
  let short = (Unix.stat path).Unix.st_size in
  check_bool "compaction shrinks history" true (short <= long);
  let st', rp = Wal.replay path in
  check_int "one snapshot commit" 1 rp.Wal.rp_commits;
  check_string "same bytes" (Turtle.to_ntriples st) (Turtle.to_ntriples st');
  check_string "meta survives" "online" (List.assoc "backend" rp.Wal.rp_meta)

(* The crash-consistency law, exhaustively at every truncation point:
   replay of any prefix of the file equals one of the commit-boundary
   snapshots.  Deterministic version of the qcheck property below. *)
let test_wal_truncate_every_byte () =
  let path = fresh_wal () in
  let st = Triple_store.create () in
  let w = Wal.open_writer path in
  let snapshots = ref [ Turtle.to_ntriples st ] in
  for b = 0 to 2 do
    List.iter
      (fun tr ->
        Triple_store.add st tr;
        Wal.log_triple w tr)
      (batch b 3);
    Wal.commit w ~store_size:(Triple_store.size st);
    snapshots := Turtle.to_ntriples st :: !snapshots
  done;
  Wal.close_writer w;
  let full = In_channel.with_open_bin path In_channel.input_all in
  let tmp = path ^ ".cut" in
  for len = String.length full downto 0 do
    Out_channel.with_open_bin tmp (fun oc ->
        Out_channel.output_string oc (String.sub full 0 len));
    let st', _ = Wal.replay tmp in
    let got = Turtle.to_ntriples st' in
    if not (List.mem got !snapshots) then
      Alcotest.failf "truncation at %d bytes is not a commit prefix" len
  done

let test_wal_corrupt_byte () =
  let path = fresh_wal () in
  let w = Wal.open_writer path in
  List.iter (Wal.log_triple w) (batch 0 4);
  Wal.commit w ~store_size:4;
  List.iter (Wal.log_triple w) (batch 1 4);
  Wal.commit w ~store_size:8;
  Wal.close_writer w;
  let full = In_channel.with_open_bin path In_channel.input_all in
  (* Flip a byte in the second half: the first commit must survive, the
     corrupt tail must be dropped, and nothing may raise. *)
  let pos = String.length full - 10 in
  let bytes = Bytes.of_string full in
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0xff));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc bytes);
  let st, rp = Wal.replay path in
  check_bool "torn flagged" true rp.Wal.rp_torn;
  check_int "first batch intact" 4 (Triple_store.size st)

(* ===== qcheck: stores agree, crashes are prefix-consistent ===== *)

(* A small closed universe of terms so random triples collide and
   patterns actually hit. *)
let term_of_int i =
  match i mod 3 with
  | 0 -> iri (Printf.sprintf "e:%d" (i mod 17))
  | 1 -> iri (Printf.sprintf "p:%d" (i mod 5))
  | _ -> lit (Printf.sprintf "v%d" (i mod 7))

let gen_triple =
  Gen.map3
    (fun a b c -> (term_of_int a, term_of_int b, term_of_int c))
    Gen.(0 -- 50) Gen.(0 -- 50) Gen.(0 -- 50)

let gen_pattern =
  let part = Gen.(oneof [ return None; map (fun i -> Some (term_of_int i)) (0 -- 50) ]) in
  Gen.triple part part part

let gen_bgp =
  let bgp_part =
    Gen.(
      oneof
        [ map (fun i -> Triple_store.Const (term_of_int i)) (0 -- 50);
          map
            (fun i -> Triple_store.Var (Printf.sprintf "x%d" i))
            (0 -- 3) ])
  in
  Gen.(list_size (1 -- 3) (triple bgp_part bgp_part bgp_part))

let render_table t =
  let cols = Weblab_relalg.Table.columns t in
  Weblab_relalg.Table.rows t
  |> List.map (fun r ->
         String.concat "|"
           (List.map
              (fun c ->
                Weblab_relalg.Value.to_string
                  (Weblab_relalg.Table.get t r c))
              cols))
  |> List.sort String.compare
  |> String.concat "\n"

let agreement_prop =
  Test.make ~name:"columnar = oracle (find/count/query/Turtle)" ~count:150
    (make
       Gen.(
         triple (list_size (0 -- 120) gen_triple)
           (list_size (1 -- 12) gen_pattern)
           (list_size (1 -- 4) gen_bgp)))
    (fun (triples, patterns, bgps) ->
      let cst = Triple_store.create () and ost = Oracle_store.create () in
      List.iter
        (fun tr ->
          Triple_store.add cst tr;
          Oracle_store.add ost tr)
        triples;
      Triple_store.size cst = Oracle_store.size ost
      && List.for_all
           (fun pat ->
             Triple_store.find cst pat = Oracle_store.find ost pat
             && Triple_store.count cst pat = Oracle_store.count ost pat)
           patterns
      && List.for_all
           (fun bgp ->
             render_table (Triple_store.query cst bgp)
             = render_table (Oracle_store.query ost bgp))
           bgps
      && String.equal (Turtle.to_turtle cst) (Oracle_turtle.to_turtle ost)
      && String.equal (Turtle.to_ntriples cst)
           (Oracle_turtle.to_ntriples ost))

let crash_consistency_prop =
  Test.make ~name:"truncated WAL replays to a commit prefix" ~count:60
    (make
       Gen.(
         pair
           (list_size (1 -- 8) (list_size (1 -- 10) gen_triple))
           (0 -- 10_000)))
    (fun (batches, cut) ->
      let path = fresh_wal () in
      let st = Triple_store.create () in
      let w = Wal.open_writer path in
      let snapshots = ref [ Turtle.to_ntriples st ] in
      List.iter
        (fun b ->
          List.iter
            (fun tr ->
              Triple_store.add st tr;
              Wal.log_triple w tr)
            b;
          Wal.commit w ~store_size:(Triple_store.size st);
          snapshots := Turtle.to_ntriples st :: !snapshots)
        batches;
      Wal.close_writer w;
      let full = In_channel.with_open_bin path In_channel.input_all in
      let len = min cut (String.length full) in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub full 0 len));
      let st', _ = Wal.replay path in
      List.mem (Turtle.to_ntriples st') !snapshots)

(* ===== warm restart through the protocol ===== *)

let rpc ctx fields =
  match J.parse_opt (Protocol.handle_line ctx (J.to_string (J.Obj fields))) with
  | Ok v -> v
  | Error e -> Alcotest.failf "unparseable response: %s" e

let get_field what name = function
  | J.Obj fs -> (
    match List.assoc_opt name fs with
    | Some v -> v
    | None -> Alcotest.failf "%s: no field %S" what name)
  | _ -> Alcotest.failf "%s: not an object" what

let get_str what name v =
  match get_field what name v with
  | J.Str s -> s
  | _ -> Alcotest.failf "%s.%s: not a string" what name

let get_bool what name v =
  match get_field what name v with
  | J.Bool b -> b
  | _ -> Alcotest.failf "%s.%s: not a bool" what name

let get_int what name v =
  match get_field what name v with
  | J.Int i -> i
  | _ -> Alcotest.failf "%s.%s: not an int" what name

let expect_ok what v =
  if not (try get_bool what "ok" v with _ -> false) then
    Alcotest.failf "%s: expected ok, got %s" what (J.to_string v);
  v

let expect_err what code v =
  check_bool (what ^ " not ok") false (get_bool what "ok" v);
  check_string (what ^ " code") code (get_str what "error" v);
  v

let turtle_of ctx sid =
  get_str "turtle" "turtle"
    (expect_ok "turtle"
       (rpc ctx
          [ ("verb", J.Str "query"); ("session", J.Str sid);
            ("kind", J.Str "turtle") ]))

(* Open a session with a couple of commits; ids deliberately include
   characters the WAL filename must percent-encode. *)
let populate ctx sid =
  ignore
    (expect_ok "open"
       (rpc ctx
          [ ("verb", J.Str "open"); ("session", J.Str sid);
            ("units", J.Int 2); ("seed", J.Int 5) ]));
  ignore
    (expect_ok "commit 1"
       (rpc ctx
          [ ("verb", J.Str "commit"); ("session", J.Str sid);
            ("service", J.Str "Normaliser") ]));
  ignore
    (expect_ok "commit 2"
       (rpc ctx
          [ ("verb", J.Str "commit"); ("session", J.Str sid);
            ("service", J.Str "Translator") ]))

let test_protocol_warm_restart () =
  let dir = fresh_dir () in
  let ctx1 = Protocol.make_ctx ~data_dir:dir () in
  let sid = "restart me/σ" in
  populate ctx1 sid;
  let served = turtle_of ctx1 sid in
  check_bool "wal exists" true (Sys.file_exists (Protocol.wal_file dir sid));
  (* No close: the daemon "crashes" here.  A fresh context replays. *)
  let ctx2 = Protocol.make_ctx ~data_dir:dir () in
  let restored = Protocol.restore_sessions ctx2 in
  check_bool "session restored" true (List.mem_assoc sid restored);
  check_string "byte-identical turtle" served (turtle_of ctx2 sid);
  (* Restored sessions answer queries but refuse appends. *)
  ignore
    (expect_ok "why on restored"
       (rpc ctx2
          [ ("verb", J.Str "query"); ("session", J.Str sid);
            ("kind", J.Str "sparql");
            ("query", J.Str "SELECT ?s WHERE { ?s a prov:Entity }") ]));
  ignore
    (expect_err "commit on restored" "read_only"
       (rpc ctx2
          [ ("verb", J.Str "commit"); ("session", J.Str sid);
            ("service", J.Str "Normaliser") ]));
  let stats =
    expect_ok "stats"
      (rpc ctx2 [ ("verb", J.Str "stats"); ("session", J.Str sid) ])
  in
  check_bool "flagged restored" true (get_bool "stats" "restored" stats);
  (* ...and the global census counts it. *)
  let g = expect_ok "stats global" (rpc ctx2 [ ("verb", J.Str "stats") ]) in
  check_int "global restored count" 1 (get_int "stats" "restored" g);
  check_int "global live count" 1 (get_int "stats" "live" g)

let test_protocol_close_compacts () =
  let dir = fresh_dir () in
  let ctx1 = Protocol.make_ctx ~data_dir:dir () in
  populate ctx1 "closed";
  let served = turtle_of ctx1 "closed" in
  ignore
    (expect_ok "close"
       (rpc ctx1 [ ("verb", J.Str "close"); ("session", J.Str "closed") ]));
  (* Close compacts the log to one snapshot commit; restore still serves
     the same bytes. *)
  let _, rp = Wal.replay (Protocol.wal_file dir "closed") in
  check_int "compacted" 1 rp.Wal.rp_commits;
  let ctx2 = Protocol.make_ctx ~data_dir:dir () in
  ignore (Protocol.restore_sessions ctx2);
  check_string "restored after close" served (turtle_of ctx2 "closed")

let test_protocol_persist_opt_out () =
  let dir = fresh_dir () in
  let ctx = Protocol.make_ctx ~data_dir:dir () in
  let resp =
    expect_ok "open"
      (rpc ctx
         [ ("verb", J.Str "open"); ("session", J.Str "ephemeral");
           ("units", J.Int 1); ("persist", J.Bool false) ])
  in
  check_bool "not persisted" false (get_bool "open" "persisted" resp);
  check_bool "no wal" false
    (Sys.file_exists (Protocol.wal_file dir "ephemeral"));
  (* and without a data dir, persist is off regardless *)
  let ctx_mem = Protocol.make_ctx () in
  let resp =
    expect_ok "open"
      (rpc ctx_mem
         [ ("verb", J.Str "open"); ("session", J.Str "mem");
           ("units", J.Int 1) ])
  in
  check_bool "memory-only daemon" false (get_bool "open" "persisted" resp)

let test_restored_survive_another_restart () =
  (* Restoring, then booting again from the same dir: the logs are not
     consumed or rewritten by restore itself. *)
  let dir = fresh_dir () in
  let ctx1 = Protocol.make_ctx ~data_dir:dir () in
  populate ctx1 "twice";
  let served = turtle_of ctx1 "twice" in
  let ctx2 = Protocol.make_ctx ~data_dir:dir () in
  ignore (Protocol.restore_sessions ctx2);
  let ctx3 = Protocol.make_ctx ~data_dir:dir () in
  ignore (Protocol.restore_sessions ctx3);
  check_string "third boot still serves" served (turtle_of ctx3 "twice")

(* A WAL written under another backend name — one the daemon no longer
   registers, or one it no longer serves — still restores: a restored
   session serves its logged store and never instantiates a backend. *)
let test_retired_backend_restores () =
  let dir = fresh_dir () in
  let ctx1 = Protocol.make_ctx ~data_dir:dir () in
  populate ctx1 "live";
  let served = turtle_of ctx1 "live" in
  let st, _ = Wal.replay (Protocol.wal_file dir "live") in
  Sys.remove (Protocol.wal_file dir "live");
  let names = [ "incremental"; "online"; "replay" ] in
  List.iter
    (fun name ->
      let w = Wal.open_writer (Protocol.wal_file dir name) in
      Triple_store.iter st (Wal.log_triple w);
      Wal.log_meta w ~key:"backend" ~value:name;
      Wal.log_meta w ~key:"commits" ~value:"2";
      Wal.commit w ~store_size:(Triple_store.size st);
      Wal.close_writer w)
    names;
  let ctx2 = Protocol.make_ctx ~data_dir:dir () in
  let restored = Protocol.restore_sessions ctx2 in
  List.iter
    (fun name ->
      check_bool (name ^ ": restored") true (List.mem_assoc name restored);
      check_string (name ^ ": serves the logged bytes") served
        (turtle_of ctx2 name);
      let stats =
        expect_ok "stats"
          (rpc ctx2 [ ("verb", J.Str "stats"); ("session", J.Str name) ])
      in
      check_string (name ^ ": logged backend name") name
        (get_str "stats" "backend" stats);
      ignore
        (expect_ok "sparql on restored"
           (rpc ctx2
              [ ("verb", J.Str "query"); ("session", J.Str name);
                ("kind", J.Str "sparql");
                ("query", J.Str "SELECT ?s WHERE { ?s a prov:Entity }") ])))
    names

(* Served Turtle depends on the committed calls only, never on when the
   session was snapshotted: a persisted session syncs its empty store at
   [open], and a query right after [open] snapshots too — neither may
   change the bytes [close] returns, which must equal the offline run's
   under each of the four backends. *)
let test_served_turtle_history_independent () =
  let services = Weblab_services.Workload.standard_pipeline () in
  let dir = fresh_dir () in
  let ctx = Protocol.make_ctx ~data_dir:dir () in
  let offline =
    List.map
      (fun units ->
        ( units,
          List.map
            (fun kind ->
              let doc =
                Weblab_services.Workload.make_document ~units ~seed:42 ()
              in
              let exec, g =
                Weblab_prov.Engine.run_with_strategy ~jobs:1 kind doc services
                  ctx.Protocol.rulebook
              in
              ( Weblab_prov.Strategy.kind_to_string kind,
                Weblab_prov.Engine.to_turtle
                  ~trace:exec.Weblab_prov.Engine.trace g ))
            Weblab_prov.Strategy.all ))
      [ 16; 64 ]
  in
  List.iter
    (fun (units, persist, early_query) ->
      let sid =
        Printf.sprintf "h-%d-%b-%b" units persist early_query
      in
      ignore
        (expect_ok "open"
           (rpc ctx
              [ ("verb", J.Str "open"); ("session", J.Str sid);
                ("units", J.Int units); ("seed", J.Int 42);
                ("persist", J.Bool persist) ]));
      if early_query then begin
        ignore
          (expect_ok "why before first commit"
             (rpc ctx
                [ ("verb", J.Str "query"); ("session", J.Str sid);
                  ("kind", J.Str "why"); ("uri", J.Str "r1") ]));
        ignore
          (expect_ok "stats before first commit"
             (rpc ctx [ ("verb", J.Str "stats"); ("session", J.Str sid) ]))
      end;
      List.iter
        (fun svc ->
          ignore
            (expect_ok "commit"
               (rpc ctx
                  [ ("verb", J.Str "commit"); ("session", J.Str sid);
                    ("service", J.Str (Weblab_workflow.Service.name svc)) ])))
        services;
      let served =
        get_str "close" "turtle"
          (expect_ok "close"
             (rpc ctx
                [ ("verb", J.Str "close"); ("session", J.Str sid);
                  ("turtle", J.Bool true) ]))
      in
      List.iter
        (fun (bname, expected) ->
          check_string
            (Printf.sprintf "%s: served = %s offline" sid bname)
            expected served)
        (List.assoc units offline))
    (List.concat_map
       (fun units ->
         [ (units, false, false); (units, false, true); (units, true, false);
           (units, true, true) ])
       [ 16; 64 ])

(* ===== the session's export store: delta sync ===== *)

module Prov = Weblab_prov
module Wf = Weblab_workflow
module Xml = Weblab_xml

(* A random pipeline, rebuilt from its seed for every backend: sessions
   mutate their document, and the fault plan (same seed, same decisions)
   must be fresh per execution.  Fragments mix element names, so the
   random rules and the one Skolem rule per service find matches.  With
   [promote], calls sometimes promote an older element to a resource. *)
let names = [| "A"; "B"; "C" |]

let rec fragment doc parent depth st =
  let attrs =
    ("g", string_of_int (Random.State.int st 3))
    :: (if Random.State.bool st then [ ("k", "1") ] else [])
  in
  let n =
    Xml.Tree.new_element doc ~parent names.(Random.State.int st 3) ~attrs
  in
  if depth > 0 then
    for _ = 1 to Random.State.int st 3 do
      ignore (fragment doc n (depth - 1) st)
    done;
  n

let pipeline_of_seed ~promote seed =
  let st = Random.State.make [| seed |] in
  let doc = Wf.Orchestrator.initial_document () in
  for _ = 1 to 1 + Random.State.int st 3 do
    ignore (fragment doc (Xml.Tree.root doc) 1 st)
  done;
  let services =
    List.init
      (3 + Random.State.int st 4)
      (fun i ->
        let fseed = Random.State.bits st in
        Wf.Service.inproc ~name:(Printf.sprintf "Svc%d" (i mod 3))
          ~description:"" (fun doc ->
            let st = Random.State.make [| fseed |] in
            (* Promote an older unidentified element now and then: its
               label belongs to the call that created it. *)
            let n = Random.State.int st (2 * Xml.Tree.size doc) in
            if
              promote
              && n < Xml.Tree.size doc
              && Xml.Tree.is_element doc n
              && Xml.Tree.uri doc n = None
            then Xml.Tree.set_uri doc n (Printf.sprintf "p%d" n);
            for _ = 0 to Random.State.int st 3 do
              ignore (fragment doc (Xml.Tree.root doc) 1 st)
            done))
  in
  let pick () = names.(Random.State.int st 3) in
  let rule i =
    let open Weblab_xpath.Ast in
    let step name preds = { axis = Descendant; test = Name name; preds } in
    let shared = Random.State.bool st in
    Prov.Rule.make ~name:(Printf.sprintf "q%d" i)
      ~source:[ step (pick ()) (if shared then [ Bind ("x", Attr "g") ] else []) ]
      ~target:[ step (pick ()) (if shared then [ Bind ("x", Attr "g") ] else []) ]
      ()
  in
  let kinds =
    Prov.Skolem.[| One_to_many; Many_to_one; One_to_one; Many_to_many |]
  in
  let rb =
    List.init 3 (fun i ->
        ( Printf.sprintf "Svc%d" i,
          List.init (1 + Random.State.int st 2) rule
          @ [ Prov.Skolem.rule
                ~kind:kinds.(Random.State.int st 4)
                ~f:(Printf.sprintf "f%d" i) ~src:(pick ()) ~tgt:(pick ())
                ~group_attr:"g" () ] ))
  in
  (doc, services, rb)

let faulty_budgets =
  { Session.default_budgets with
    Session.policy =
      { Session.default_budgets.Session.policy with
        Wf.Orchestrator.retries = 1; backoff_ms = 1. } }

module Driver = Weblab_test_support.Backend_driver

(* The session's store, the offline export of its snapshot and the
   replay of its WAL: the same triple sequence, and no reset logged. *)
let export_agrees s path =
  let live = Triple_store.triples (Session.store s) in
  let expected =
    Prov.Prov_export.to_store ?trace:(Session.trace s) (Session.graph s)
  in
  let replayed, rp = Wal.replay path in
  live = Triple_store.triples expected
  && live = Triple_store.triples replayed
  && rp.Wal.rp_resets = 0
  && rp.Wal.rp_triples = List.length live

(* Each backend's offline run of one execution.  [execution ()] rebuilds
   the document, the services (with a fresh fault plan: same seed, same
   decisions) and the rulebook, since every run mutates its own
   document. *)
let offline_runs ~budgets execution =
  List.map
    (fun kind ->
      let doc, services, rb = execution () in
      ( Driver.start ~policy:budgets.Session.policy
          (Prov.Strategy.backend_of kind) ~doc rb,
        Array.of_list services ))
    Prov.Strategy.all

let step_offline runs i =
  List.iter (fun (d, services) -> ignore (Driver.step d services.(i))) runs

(* Drive one persisted Fused session through the execution's services,
   with every backend's offline run stepped alongside.  After [open] and
   after every commit, failed ones included, the session's store must
   equal its own snapshot's export, its WAL replay, and the export of
   each offline run.  Returns whether that held throughout, the final
   store's triples, and how many calls failed. *)
let drive_session ~budgets execution =
  let doc, services, rb = execution () in
  let runs = offline_runs ~budgets execution in
  let path = fresh_wal () in
  let s =
    Session.create ~id:"delta" ~backend:`Fused ~budgets ~wal_path:path ~doc rb
  in
  let agrees () =
    let live = Triple_store.triples (Session.store s) in
    export_agrees s path
    && List.for_all
         (fun (d, _) ->
           live
           = Triple_store.triples
               (Prov.Prov_export.to_store ~trace:(Driver.trace d)
                  (Driver.graph d)))
         runs
  in
  let ok = ref (agrees ()) and failed = ref 0 in
  List.iteri
    (fun i svc ->
      (match Session.commit s svc with
      | Ok _ -> ()
      | Error _ -> incr failed);
      step_offline runs i;
      ok := !ok && agrees ())
    services;
  ignore (Session.close s);
  let final = Triple_store.triples (Session.store s) in
  let replayed, _ = Wal.replay path in
  (!ok && final = Triple_store.triples replayed, final, !failed)

let with_faults ~faults ~rate ~fault_seed (doc, services, rb) =
  let services =
    if rate = 0. then services
    else
      Weblab_services.Faulty.wrap_all
        (Weblab_services.Faulty.plan ~faults ~rate ~seed:fault_seed ())
        services
  in
  (doc, services, rb)

let delta_sync_prop =
  Test.make
    ~name:
      "session store = to_store of the snapshot = WAL replay = each \
       backend's offline export after every commit, x faults x Skolem \
       rules x promotions"
    ~count:40
    (make
       ~print:(fun (seed, fseed, r, promote) ->
         Printf.sprintf "seed=%d fault_seed=%d rate=%d promote=%b" seed fseed
           r promote)
       Gen.(
         quad (int_bound 1_000_000) (int_bound 1_000_000) (int_bound 2) bool))
    (fun (seed, fault_seed, r, promote) ->
      let rate = [| 0.; 0.3; 0.6 |].(r) in
      let ok, _, _ =
        drive_session ~budgets:faulty_budgets (fun () ->
            with_faults
              ~faults:
                Weblab_services.Faulty.
                  [ Crash; Garbage_xml; Mutate_committed; Duplicate_uri ]
              ~rate ~fault_seed
              (pipeline_of_seed ~promote seed))
      in
      ok)

(* [why]/[impact] traverse the live graph instead of materializing a
   closure; after [open] and after every commit, failed ones included,
   they answer exactly what a closure over each backend's offline
   snapshot does — also for a URI the graph does not know. *)
let served_lineage_prop =
  Test.make
    ~name:
      "served why/impact = Reachability of each backend's offline \
       snapshot after every commit, x faults x promotions"
    ~count:30
    (make
       ~print:(fun (seed, fseed, faults) ->
         Printf.sprintf "seed=%d fault_seed=%d faults=%b" seed fseed faults)
       Gen.(triple (int_bound 1_000_000) (int_bound 1_000_000) bool))
    (fun (seed, fault_seed, faults) ->
      let execution () =
        with_faults
          ~faults:Weblab_services.Faulty.[ Crash; Mutate_committed ]
          ~rate:(if faults then 0.3 else 0.) ~fault_seed
          (pipeline_of_seed ~promote:true seed)
      in
      let doc, services, rb = execution () in
      let runs = offline_runs ~budgets:faulty_budgets execution in
      let s =
        Session.create ~id:"lineage" ~backend:`Fused ~budgets:faulty_budgets
          ~doc rb
      in
      let uris g =
        List.map fst (Prov.Prov_graph.labeled_resources g)
        @ List.concat_map
            (fun l -> [ l.Prov.Prov_graph.from_uri; l.to_uri ])
            (Prov.Prov_graph.links g)
      in
      let agrees () =
        let served = "ghost" :: uris (Session.graph s) in
        List.for_all
          (fun (d, _) ->
            let g = Driver.graph d in
            let r = Prov.Reachability.build g in
            List.for_all
              (fun u ->
                Session.why s u = Prov.Reachability.ancestors r u
                && Session.impact s u = Prov.Reachability.descendants r u)
              (served @ uris g))
          runs
      in
      let ok = ref (agrees ()) in
      List.iteri
        (fun i svc ->
          ignore (Session.commit s svc);
          step_offline runs i;
          ok := !ok && agrees ())
        services;
      !ok)

(* Figure 4's promotion (node 3 becomes r3 at c1) appends; it never
   rewrites what the log holds. *)
let test_paper_promotion_appends () =
  let module P = Weblab_scenario.Paper in
  let ok, final, _ =
    drive_session ~budgets:Session.default_budgets (fun () ->
        (P.initial_document (), P.services, P.rulebook ()))
  in
  check_bool "store = export = replay = each backend's export" true ok;
  let e = P.run () in
  let g = Prov.Strategy.infer ~doc:e.P.doc ~trace:e.P.trace e.P.rulebook in
  check_bool "served = offline" true
    (final = Triple_store.triples (Prov.Prov_export.to_store ~trace:e.P.trace g))

(* A long chain on the daemon's configuration, killed without [close]:
   every triple reached the log exactly once, with no reset. *)
let test_chain_logs_each_triple_once () =
  let ctx = Protocol.make_ctx () in
  let path = fresh_wal () in
  let s =
    Session.create ~id:"chain" ~backend:`Fused ~wal_path:path
      ~doc:(Weblab_services.Workload.make_document ~units:3 ~seed:1000 ())
      ctx.Protocol.rulebook
  in
  List.iter
    (fun svc ->
      match Session.commit s svc with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "chain commit failed")
    (Weblab_services.Workload.chain_pipeline 120);
  let replayed, rp = Wal.replay path in
  let live = Session.store s in
  check_int "one commit per sync" 121 rp.Wal.rp_commits;
  check_int "no reset" 0 rp.Wal.rp_resets;
  check_int "each triple logged once" (Triple_store.size live) rp.Wal.rp_triples;
  check_string "replay = live" (Turtle.to_ntriples live)
    (Turtle.to_ntriples replayed)

let () =
  Alcotest.run "persist"
    [ ( "wal",
        [ Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "missing / uncommitted" `Quick
            test_wal_missing_and_uncommitted;
          Alcotest.test_case "reset" `Quick test_wal_reset;
          Alcotest.test_case "compaction" `Quick test_wal_compact;
          Alcotest.test_case "truncate every byte" `Quick
            test_wal_truncate_every_byte;
          Alcotest.test_case "corrupt byte" `Quick test_wal_corrupt_byte ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest agreement_prop;
          QCheck_alcotest.to_alcotest crash_consistency_prop ] );
      ( "delta-sync",
        [ QCheck_alcotest.to_alcotest delta_sync_prop;
          QCheck_alcotest.to_alcotest served_lineage_prop;
          Alcotest.test_case "paper promotion appends" `Quick
            test_paper_promotion_appends;
          Alcotest.test_case "120-commit chain logs each triple once" `Quick
            test_chain_logs_each_triple_once ] );
      ( "warm-restart",
        [ Alcotest.test_case "protocol restart" `Quick
            test_protocol_warm_restart;
          Alcotest.test_case "close compacts" `Quick
            test_protocol_close_compacts;
          Alcotest.test_case "persist opt-out" `Quick
            test_protocol_persist_opt_out;
          Alcotest.test_case "restart twice" `Quick
            test_restored_survive_another_restart;
          Alcotest.test_case "retired backend name restores" `Quick
            test_retired_backend_restores ] );
      ( "history",
        [ Alcotest.test_case "served Turtle = offline, any snapshot history"
            `Quick test_served_turtle_history_independent ] ) ]
