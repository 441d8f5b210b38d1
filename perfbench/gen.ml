(* Request streams for the benchmark's workloads.

   Everything the client sends is generated here from the run's seed and
   JSON-encoded before the timed phase starts; the timed loop only copies
   these bytes onto the socket.  A run's work is fixed by the workload
   and the session count: the seed changes document contents (words,
   languages, ids), never the mix of document sizes or call sequences, so
   runs with different seeds do the same amount of work. *)

module J = Weblab_server.Json

type workload = Persist_chain | Infer_query | Xml_ingest

let workloads = [ Persist_chain; Infer_query; Xml_ingest ]

let workload_name = function
  | Persist_chain -> "persist-chain"
  | Infer_query -> "infer-query"
  | Xml_ingest -> "xml-ingest"

let workload_of_string s =
  List.find_opt (fun w -> String.equal (workload_name w) s) workloads

type kind = Open | Commit | Why | Impact | Sparql | Stats | Close

type request = {
  kind : kind;
  pieces : string array;
      (** the request line is the concatenation of the pieces (the
          newline excluded); xml-ingest bodies share unit fragments
          between the growing document states of one session *)
  xml_bytes : int;  (** bytes of XML body carried, 0 without one *)
}

type session = {
  sid : string;
  doc_seed : int;
  units : int;  (** units of the opening document (0: empty scenario) *)
  requests : request array;
  doc_nodes : int;
      (** xml-ingest: nodes of the last state sent, as the generator
          counts them; 0 elsewhere *)
}

type plan = {
  workload : workload;
  seed : int;
  warmup : session;
  sessions : session array;
}

(* ----- parameters -----

   persist-chain: a small document under a long commit chain, so the
   per-commit export rebuild and WAL append dominate.
   infer-query: large documents under one catalog cycle, so inference and
   the query side (reachability, export store, BGP) dominate.  Sizes cycle
   through a fixed list so every run holds the same size mix.
   xml-ingest: client-sent document states growing by a fixed number of
   units per commit, so JSON decoding, XML ingest and diff dominate. *)

let chain_units = 3
let chain_calls = 120

(* persist-chain documents: 3-unit document seeds whose 120-call chain
   exports 4,800 to 5,700 triples (default backend, when the benchmark
   was written).  A 3-unit document's export varies twentyfold with its
   languages and entities, and every commit rebuilds the whole export
   store, so free seeds would make a run's work depend on the run seed.
   The run seed picks and orders documents from this pool. *)
let chain_pool =
  [| 1000; 1006; 1007; 1008; 1009; 1011; 1018; 1022; 1023; 1030; 1032; 1035;
     1041; 1047; 1049; 1050; 1054; 1061; 1062; 1065; 1068; 1076; 1080; 1082;
     1084; 1086; 1094; 1097; 1099; 1100; 1104; 1107; 1110; 1115; 1116; 1118;
     1123; 1126; 1127; 1134; 1138; 1143; 1146; 1147; 1152; 1154; 1158; 1162 |]
let infer_units = [| 128; 160; 192; 224; 256 |]
let infer_calls = 9
let why_uri = "mu1"
let sparql_query = "SELECT ?b ?a WHERE { ?b prov:wasDerivedFrom ?a }"
let xml_commits = 16
let xml_units_per_commit = 48
let xml_sentences = 4

(* A block is the unit of fixed work: consecutive sessions that together
   hold the workload's whole size mix.  A run is a whole number of
   blocks, so every run does the same work whatever its seed. *)
let block_sessions = function
  | Persist_chain -> 2
  | Infer_query -> Array.length infer_units
  | Xml_ingest -> 20

(* Seconds one block takes on a 2-CPU x86 container; they set how many
   blocks a run of [--seconds] does. *)
let block_seconds = function
  | Persist_chain -> 3.4
  | Infer_query -> 6.0
  | Xml_ingest -> 2.9

let blocks w ~seconds =
  max 1 (int_of_float (Float.round (float_of_int seconds /. block_seconds w)))

(* Per-session seeds: a pure function of the run seed and the session
   index, so one session's document never depends on the count. *)
let derive seed i = Random.State.bits (Random.State.make [| 0x5eed; seed; i |])

let service_names n =
  List.map Weblab_workflow.Service.name
    (Weblab_services.Workload.chain_pipeline n)

let line kind fields = { kind; pieces = [| J.to_string (J.Obj fields) |]; xml_bytes = 0 }

let verb v sid rest = ("verb", J.Str v) :: ("session", J.Str sid) :: rest

let commit_service sid name = line Commit (verb "commit" sid [ ("service", J.Str name) ])

let close sid = line Close (verb "close" sid [ ("turtle", J.Bool true) ])

let open_standard sid ~units ~doc_seed =
  line Open (verb "open" sid [ ("units", J.Int units); ("seed", J.Int doc_seed) ])

let persist_chain_session sid doc_seed =
  let commits = List.map (commit_service sid) (service_names chain_calls) in
  { sid; doc_seed; units = chain_units; doc_nodes = 0;
    requests =
      Array.of_list
        ((open_standard sid ~units:chain_units ~doc_seed :: commits)
        @ [ close sid ]) }

let infer_query_session sid doc_seed units =
  let queries =
    [ line Why (verb "query" sid [ ("kind", J.Str "why"); ("uri", J.Str why_uri) ]);
      line Impact
        (verb "query" sid [ ("kind", J.Str "impact"); ("uri", J.Str why_uri) ]);
      line Sparql
        (verb "query" sid
           [ ("kind", J.Str "sparql"); ("query", J.Str sparql_query) ]) ]
  in
  let calls =
    List.concat_map
      (fun name -> commit_service sid name :: queries)
      (service_names infer_calls)
  in
  { sid; doc_seed; units; doc_nodes = 0;
    requests =
      Array.of_list ((open_standard sid ~units ~doc_seed :: calls) @ [ close sid ]) }

(* ----- xml-ingest documents -----

   State k is the root plus the units of commits 1..k.  A unit committed
   at time t is echoed back with the labels the daemon gave it
   (s="ClientXml" t="<t>"), exactly as the daemon holds it, because append
   semantics forbid dropping attributes.  The root carries the Source
   label of the session prologue.  Each unit is an element with one
   element child holding one text node: three nodes. *)

let words =
  [| "provenance"; "fragment"; "resource"; "service"; "workflow"; "document";
     "lineage"; "media"; "unit"; "content"; "language"; "entity"; "summary";
     "record"; "archive"; "signal"; "report"; "source"; "review"; "index" |]

let sentence rng =
  let n = 6 + Random.State.int rng 8 in
  String.concat " " (List.init n (fun _ -> words.(Random.State.int rng (Array.length words))))
  ^ "."

let xml_ingest_session sid doc_seed =
  let rng = Random.State.make [| doc_seed |] in
  let n = xml_commits * xml_units_per_commit in
  (* Each unit as JSON-escaped fragments with their XML lengths: its open
     tag unlabelled (the commit that adds it), its open tag labelled (the
     commits after), and the rest of the unit. *)
  let esc s =
    let j = J.to_string (J.Str s) in
    (String.sub j 1 (String.length j - 2), String.length s)
  in
  let units =
    Array.init n (fun u ->
        let id = Printf.sprintf "u%d-%d" (doc_seed land 0xffff) u in
        let text = String.concat " " (List.init xml_sentences (fun _ -> sentence rng)) in
        ( esc (Printf.sprintf "<MediaUnit id=\"%s\">" id),
          esc
            (Printf.sprintf "<MediaUnit id=\"%s\" s=\"ClientXml\" t=\"%d\">" id
               ((u / xml_units_per_commit) + 1)),
          esc (Printf.sprintf "<NativeContent>%s</NativeContent></MediaUnit>" text) ))
  in
  let root_open, root_open_len = esc "<Resource id=\"r1\" s=\"Source\" t=\"0\">" in
  let root_close, root_close_len = esc "</Resource>" in
  let prefix =
    Printf.sprintf "{\"verb\":\"commit\",\"session\":%s,\"xml\":\"%s"
      (J.to_string (J.Str sid)) root_open
  in
  let commits =
    List.init xml_commits (fun k ->
        let time = k + 1 in
        let pieces = ref [ root_close ^ "\"}" ] in
        let bytes = ref (root_open_len + root_close_len) in
        for u = (time * xml_units_per_commit) - 1 downto 0 do
          let fresh, labelled, (rest, rest_len) = units.(u) in
          let head, head_len =
            if (u / xml_units_per_commit) + 1 = time then fresh else labelled
          in
          pieces := head :: rest :: !pieces;
          bytes := !bytes + head_len + rest_len
        done;
        { kind = Commit; pieces = Array.of_list (prefix :: !pieces);
          xml_bytes = !bytes })
  in
  { sid; doc_seed; units = 0; doc_nodes = 1 + (3 * n);
    requests =
      Array.of_list
        ((line Open (verb "open" sid [ ("scenario", J.Str "empty") ]) :: commits)
        @ [ line Stats [ ("verb", J.Str "stats"); ("session", J.Str sid) ];
            close sid ]) }

(* Session [i] of a run; [-1] is the warm-up session. *)
let session w ~seed i =
  let sid =
    Printf.sprintf "%s-%s" (workload_name w)
      (if i < 0 then "warm" else string_of_int i)
  in
  match w with
  | Persist_chain ->
    let order = Array.map (fun d -> (derive seed d, d)) chain_pool in
    Array.sort compare order;
    persist_chain_session sid (snd order.((i + 1) mod Array.length order))
  | Infer_query ->
    infer_query_session sid (derive seed i)
      infer_units.(max 0 i mod Array.length infer_units)
  | Xml_ingest -> xml_ingest_session sid (derive seed i)

let plan w ~seed ~blocks =
  { workload = w; seed; warmup = session w ~seed (-1);
    sessions = Array.init (blocks * block_sessions w) (session w ~seed) }

let request_line r = String.concat "" (Array.to_list r.pieces)

(* The whole stream as the daemon receives it, warm-up first. *)
let stream p =
  let b = Buffer.create 4096 in
  Array.iter
    (fun s ->
      Array.iter
        (fun r ->
          Array.iter (Buffer.add_string b) r.pieces;
          Buffer.add_char b '\n')
        s.requests)
    (Array.append [| p.warmup |] p.sessions);
  Buffer.contents b
