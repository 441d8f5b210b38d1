(* Tests for the RDF substrate: triple store, serialization and the
   SPARQL subset. *)

open Weblab_rdf
open Weblab_test_support
open Weblab_relalg

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let iri = Term.iri
let lit = Term.lit

let sample_store () =
  let st = Triple_store.create () in
  let add s p o = Triple_store.add st (s, p, o) in
  add (iri "e:1") Prov_vocab.rdf_type Prov_vocab.entity;
  add (iri "e:2") Prov_vocab.rdf_type Prov_vocab.entity;
  add (iri "a:1") Prov_vocab.rdf_type Prov_vocab.activity;
  add (iri "e:2") Prov_vocab.was_derived_from (iri "e:1");
  add (iri "e:2") Prov_vocab.was_generated_by (iri "a:1");
  add (iri "a:1") Prov_vocab.used (iri "e:1");
  add (iri "e:1") Prov_vocab.rdfs_label (lit "source");
  st

let test_add_dedup () =
  let st = Triple_store.create () in
  let t = (iri "a", iri "b", iri "c") in
  Triple_store.add st t;
  Triple_store.add st t;
  check_int "size" 1 (Triple_store.size st);
  check_bool "mem" true (Triple_store.mem st t);
  check_bool "not mem" false (Triple_store.mem st (iri "a", iri "b", iri "d"))

let test_find_patterns () =
  let st = sample_store () in
  check_int "by subject" 3 (Triple_store.count st (Some (iri "e:2"), None, None));
  check_int "by predicate" 3
    (Triple_store.count st (None, Some Prov_vocab.rdf_type, None));
  check_int "by object" 2 (Triple_store.count st (None, None, Some (iri "e:1")));
  check_int "exact" 1
    (Triple_store.count st
       (Some (iri "e:2"), Some Prov_vocab.was_derived_from, Some (iri "e:1")));
  check_int "all" 7 (Triple_store.count st (None, None, None));
  check_int "no match" 0 (Triple_store.count st (Some (iri "zz"), None, None))

let test_term_semantics () =
  check_bool "lit with/without dt" false
    (Term.equal (lit "5") (Term.int_lit 5));
  check_bool "lit eq" true (Term.equal (lit "a") (lit "a"));
  check_bool "iri neq bnode" false (Term.equal (iri "x") (Term.bnode "x"))

let test_bgp_query () =
  let st = sample_store () in
  let q =
    [ (Triple_store.Var "e", Triple_store.Const Prov_vocab.rdf_type,
       Triple_store.Const Prov_vocab.entity) ]
  in
  check_int "entities" 2 (Table.cardinality (Triple_store.query st q))

let test_bgp_join () =
  let st = sample_store () in
  (* entities derived from something that an activity used *)
  let q =
    [ (Triple_store.Var "b", Triple_store.Const Prov_vocab.was_derived_from,
       Triple_store.Var "a");
      (Triple_store.Var "act", Triple_store.Const Prov_vocab.used,
       Triple_store.Var "a") ]
  in
  let t = Triple_store.query st q in
  check_int "joined" 1 (Table.cardinality t);
  let row = List.hd (Table.rows t) in
  check_bool "b bound" true
    (Value.to_string (Table.get t row "b") = "<e:2>")

let test_bgp_repeated_var () =
  let st = Triple_store.create () in
  Triple_store.add st (iri "a", iri "p", iri "a");
  Triple_store.add st (iri "a", iri "p", iri "b");
  let q = [ (Triple_store.Var "x", Triple_store.Const (iri "p"), Triple_store.Var "x") ] in
  check_int "self loops" 1 (Table.cardinality (Triple_store.query st q))

let test_ntriples_roundtrip () =
  let st = sample_store () in
  Triple_store.add st
    (iri "e:3", Prov_vocab.rdfs_label, Term.Lit ("line\nbreak \"q\"", None));
  Triple_store.add st (iri "e:3", Prov_vocab.wl_timestamp, Term.int_lit 42);
  let text = Turtle.to_ntriples st in
  let st' = Turtle.parse_ntriples text in
  check_int "same size" (Triple_store.size st) (Triple_store.size st');
  Triple_store.iter st (fun t ->
      check_bool "triple preserved" true (Triple_store.mem st' t))

let test_turtle_output () =
  let st = sample_store () in
  let ttl = Turtle.to_turtle st in
  let contains needle =
    let nh = String.length ttl and nn = String.length needle in
    let rec loop i = i + nn <= nh && (String.sub ttl i nn = needle || loop (i + 1)) in
    loop 0
  in
  check_bool "prefix decl" true (contains "@prefix prov:");
  check_bool "abbreviated" true (contains "prov:Entity");
  check_bool "derived" true (contains "prov:wasDerivedFrom")

let test_sparql_select () =
  let st = sample_store () in
  let t =
    Sparql.run st "SELECT ?e WHERE { ?e a prov:Entity }"
  in
  check_int "two entities" 2 (Table.cardinality t);
  check (Alcotest.list Alcotest.string) "cols" [ "e" ] (Table.columns t)

let test_sparql_join_and_prefix () =
  let st = sample_store () in
  let t =
    Sparql.run st
      "PREFIX ex: <e:> SELECT ?a WHERE { ex:2 prov:wasDerivedFrom ?a . \
       ?act prov:used ?a . }"
  in
  check_int "one" 1 (Table.cardinality t)

let test_sparql_star () =
  let st = sample_store () in
  let t = Sparql.run st "SELECT * WHERE { ?s prov:used ?o }" in
  check (Alcotest.list Alcotest.string) "both vars" [ "s"; "o" ] (Table.columns t)

let test_sparql_literal () =
  let st = sample_store () in
  let t = Sparql.run st "SELECT ?s WHERE { ?s rdfs:label \"source\" }" in
  check_int "by label" 1 (Table.cardinality t)

let numbered_store () =
  let st = Triple_store.create () in
  for i = 1 to 5 do
    Triple_store.add st
      (iri (Printf.sprintf "e:%d" i), Prov_vocab.wl_timestamp, Term.int_lit i)
  done;
  st

let test_sparql_filter () =
  let st = numbered_store () in
  let t =
    Sparql.run st
      "SELECT ?e WHERE { ?e wl:timestamp ?t . FILTER(?t > 3) }"
  in
  check_int "filtered" 2 (Table.cardinality t);
  let t =
    Sparql.run st
      "SELECT ?e WHERE { ?e wl:timestamp ?t . FILTER(?t >= 2) FILTER(?t <= 3) }"
  in
  check_int "two filters" 2 (Table.cardinality t);
  let t =
    Sparql.run st "SELECT ?e WHERE { ?e wl:timestamp ?t . FILTER(?t != 3) }"
  in
  check_int "neq" 4 (Table.cardinality t)

let test_sparql_order_limit () =
  let st = numbered_store () in
  let first_binding q =
    let t = Sparql.run st q in
    check_int "limited to 1" 1 (Table.cardinality t);
    Value.to_string (Table.get t (List.hd (Table.rows t)) "t")
  in
  check Alcotest.string "ascending"
    "\"1\"^^<http://www.w3.org/2001/XMLSchema#integer>"
    (first_binding
       "SELECT ?t WHERE { ?e wl:timestamp ?t } ORDER BY ?t LIMIT 1");
  check Alcotest.string "descending"
    "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>"
    (first_binding
       "SELECT ?t WHERE { ?e wl:timestamp ?t } ORDER BY DESC(?t) LIMIT 1")

let test_sparql_ask () =
  let st = sample_store () in
  check_bool "ask true" true
    (Sparql.ask st "ASK { ?e a prov:Entity }");
  check_bool "ask false" false
    (Sparql.ask st "ASK { ?e a prov:Agent }");
  check_bool "ask with constant" true
    (Sparql.ask st "ASK WHERE { <e:2> prov:wasDerivedFrom <e:1> }")

let test_sparql_numeric_order () =
  (* "10" must sort after "9" (numeric, not lexicographic). *)
  let st = Triple_store.create () in
  Triple_store.add st (iri "a", Prov_vocab.wl_timestamp, Term.int_lit 9);
  Triple_store.add st (iri "b", Prov_vocab.wl_timestamp, Term.int_lit 10);
  let t =
    Sparql.run st
      "SELECT ?e WHERE { ?e wl:timestamp ?t } ORDER BY DESC(?t) LIMIT 1"
  in
  check Alcotest.string "b wins" "<b>"
    (Value.to_string (Table.get t (List.hd (Table.rows t)) "e"))

let test_sparql_distinct_keyword () =
  let st = sample_store () in
  (* DISTINCT parses; results are sets either way in this engine. *)
  let t = Sparql.run st "SELECT DISTINCT ?e WHERE { ?e a prov:Entity }" in
  check_int "two" 2 (Table.cardinality t)

let test_turtle_abbreviation_edges () =
  (* Local parts with characters outside the plain-name set fall back to
     full IRIs instead of producing invalid qnames. *)
  let st = Triple_store.create () in
  Triple_store.add st
    (Term.Iri (Prov_vocab.weblab_ns ^ "resource/r1"), Prov_vocab.rdf_type,
     Prov_vocab.entity);
  Triple_store.add st
    (Term.Iri (Prov_vocab.weblab_ns ^ "call/Svc-1"), Prov_vocab.rdf_type,
     Prov_vocab.activity);
  let ttl = Turtle.to_turtle st in
  let contains needle =
    let nh = String.length ttl and nn = String.length needle in
    let rec loop i = i + nn <= nh && (String.sub ttl i nn = needle || loop (i + 1)) in
    loop 0
  in
  (* "resource/r1" has a '/' in the local part: must stay a full IRI *)
  check_bool "slash stays full IRI" true
    (contains ("<" ^ Prov_vocab.weblab_ns ^ "resource/r1>"));
  check_bool "plain local abbreviates" true (contains "prov:Entity")

let test_unbound_sentinel () =
  (* The documented sentinel for a variable a solution never bound: the
     empty string Value — pinned here because every real binding
     renders a term, and term encodings are never empty. *)
  check_bool "sentinel is the empty string value" true
    (Triple_store.unbound = Value.Str "");
  let st = sample_store () in
  let q =
    [ (Triple_store.Var "s", Triple_store.Var "p", Triple_store.Var "o") ]
  in
  let t = Triple_store.query st q in
  Table.rows t
  |> List.iter (fun r ->
         List.iter
           (fun c ->
             check_bool "real bindings never collide with the sentinel"
               false
               (Table.get t r c = Triple_store.unbound))
           (Table.columns t))

let test_merge_boundary () =
  (* Cross the LSM tail limit several times and agree with the oracle on
     every shape, both mid-tail and right at merge boundaries. *)
  let cst = Triple_store.create () and ost = Oracle_store.create () in
  let tr i =
    ( iri (Printf.sprintf "s:%d" (i mod 611)),
      iri (Printf.sprintf "p:%d" (i mod 7)),
      if i mod 3 = 0 then iri (Printf.sprintf "s:%d" ((i + 1) mod 611))
      else lit (Printf.sprintf "v%d" (i mod 97)) )
  in
  for i = 0 to 2_999 do
    let t = tr i in
    Triple_store.add cst t;
    Oracle_store.add ost t;
    if i mod 512 = 0 || i = 1023 || i = 1024 || i = 2_999 then begin
      let s, p, o = tr (i / 2) in
      List.iter
        (fun pat ->
          check_bool "find agrees across merges" true
            (Triple_store.find cst pat = Oracle_store.find ost pat);
          check_int "count agrees across merges"
            (Oracle_store.count ost pat)
            (Triple_store.count cst pat))
        [ (Some s, Some p, None); (None, Some p, Some o);
          (Some s, None, None); (None, Some p, None);
          (None, None, Some o); (Some s, Some p, Some o);
          (None, None, None) ]
    end
  done;
  check_int "sizes agree" (Oracle_store.size ost) (Triple_store.size cst);
  let st = Triple_store.stats cst in
  check_int "base + tail = live" st.Triple_store.st_triples
    (st.Triple_store.st_base + st.Triple_store.st_tail);
  check_bool "merged at least twice" true (st.Triple_store.st_merges >= 2);
  Triple_store.compact cst;
  let st = Triple_store.stats cst in
  check_int "compact empties the tail" 0 st.Triple_store.st_tail;
  check Alcotest.string "bytes stable under compaction"
    (Oracle_turtle.to_ntriples ost) (Turtle.to_ntriples cst)

(* Write cost pinned by an exact count: building a store of n distinct
   triples must merge O(n log n) run entries in all.  A store that merged
   its whole base every fixed number of adds would write about
   n^2 / 2048 entries here (33.7M at n = 262,144, against the bound's
   4.7M). *)
let test_write_merge_work () =
  let n = 262_144 in
  let st = Triple_store.create () in
  for i = 0 to n - 1 do
    Triple_store.add st
      ( iri (Printf.sprintf "s:%d" (i lsr 6)),
        iri (Printf.sprintf "p:%d" (i land 7)),
        lit (string_of_int i) )
  done;
  let stats = Triple_store.stats st in
  let log2_n = 18 in
  check_int "all distinct" n stats.Triple_store.st_triples;
  check_bool
    (Printf.sprintf "merge work O(n log n): %d entries"
       stats.Triple_store.st_moved)
    true
    (stats.Triple_store.st_moved <= n * log2_n);
  check_bool
    (Printf.sprintf "merges O(log n): %d" stats.Triple_store.st_merges)
    true
    (stats.Triple_store.st_merges <= log2_n);
  (* A probe first merges a tail longer than it would scan. *)
  for i = 0 to 1_499 do
    Triple_store.add st (iri "s:extra", iri "p:0", lit (string_of_int i))
  done;
  check_int "extra subject" 1_500
    (Triple_store.count st (Some (iri "s:extra"), None, None));
  check_int "probe merged the tail" 0
    (Triple_store.stats st).Triple_store.st_tail;
  check_int "a subject's slice" 64
    (Triple_store.count st (Some (iri "s:7"), None, None))

(* ----- interleaved probes: columnar = oracle at every probe ----- *)

let qcheck_terms =
  let ex = "http://example.org/" in
  let res = Prov_vocab.weblab_ns ^ "resource/" in
  [| (* inside the prefixes, abbreviable *)
     Prov_vocab.entity; Prov_vocab.activity;
     Term.Iri (Prov_vocab.weblab_ns ^ "r1");
     Term.Iri (Prov_vocab.weblab_ns ^ "a_b-c.d");
     (* inside a namespace, but no plain local name *)
     Term.Iri (res ^ "r2"); Term.Iri (Prov_vocab.weblab_ns ^ ".dot");
     Term.Iri (Prov_vocab.prov_ns ^ "end.");
     (* outside every prefix *)
     Term.Iri (ex ^ "x"); Term.Iri (ex ^ "y/z"); Term.Iri "urn:u";
     Term.bnode "b0"; Term.bnode "b1";
     (* literals needing escapes, and datatyped ones *)
     lit "plain"; lit ""; lit "quote\"d"; lit "back\\slash";
     lit "line\nbreak\r\ttab"; Term.int_lit 7; Term.int_lit (-3);
     Term.Lit ("2013-03-18T00:00:00", Some Term.xsd_date_time);
     Term.Lit ("v", Some (ex ^ "dt")); Term.Lit ("7", None) |]

let qcheck_preds =
  [| Prov_vocab.rdf_type; Prov_vocab.rdfs_label; Prov_vocab.was_derived_from;
     Prov_vocab.used; Term.Iri "http://example.org/p";
     Term.Iri (Prov_vocab.weblab_ns ^ "p/q") |]

type op =
  | Add of Triple_store.triple
  | Again of int  (* re-add the triple added this many adds ago *)
  | Probe of Triple_store.pattern list
  | Probe_added of (int * int) list
      (* patterns of triples added this many adds ago, masked: bit 0
         keeps the subject, bit 1 the predicate, bit 2 the object *)
  | Render of (string * string) list option

let gen_ops =
  let open QCheck.Gen in
  let nt = Array.length qcheck_terms in
  (* Numbered terms widen the triple space past the merge bounds; the
     fixed pool supplies the escapes, prefixes and term kinds. *)
  let numbered k = Term.Iri (Printf.sprintf "http://example.org/n%d" k) in
  let gen_term =
    frequency
      [ (1, map (fun i -> qcheck_terms.(i)) (int_bound (nt - 1)));
        (3, map numbered (int_bound 199)) ]
  in
  let gen_subject =
    map (function Term.Lit _ -> Term.bnode "b2" | t -> t) gen_term
  in
  let gen_pred =
    map (fun i -> qcheck_preds.(i)) (int_bound (Array.length qcheck_preds - 1))
  in
  let gen_pattern = triple (opt gen_subject) (opt gen_pred) (opt gen_term) in
  let prefixes =
    [| None; Some [];
       Some [ ("ex", "http://example.org/"); ("wl", Prov_vocab.weblab_ns) ] |]
  in
  list_size (0 -- 4_000)
    (frequency
       [ (360, map (fun tr -> Add tr) (triple gen_subject gen_pred gen_term));
         (40, map (fun k -> Again k) (int_bound 2_000));
         (2, map (fun pats -> Probe pats) (list_size (1 -- 6) gen_pattern));
         ( 2,
           map
             (fun ps -> Probe_added ps)
             (list_size (1 -- 6) (pair (int_bound 2_000) (int_bound 7))) );
         (1, map (fun i -> Render prefixes.(i)) (int_bound 2)) ])

let interleaved_prop =
  QCheck.Test.make ~name:"interleaved probes: columnar = oracle" ~count:40
    (QCheck.make gen_ops ~print:(fun ops ->
         Printf.sprintf "%d ops" (List.length ops)))
    (fun ops ->
      let cst = Triple_store.create () and ost = Oracle_store.create () in
      let agree_on pat =
        let ok =
          Triple_store.find cst pat = Oracle_store.find ost pat
          && Triple_store.count cst pat = Oracle_store.count ost pat
        in
        match pat with
        | Some s, Some p, Some o ->
          ok && Triple_store.mem cst (s, p, o) = Oracle_store.mem ost (s, p, o)
        | _ -> ok
      in
      let added = ref [||] and n_added = ref 0 in
      let add tr =
        if !n_added = Array.length !added then
          added := Array.append !added (Array.make (max 64 !n_added) tr);
        !added.(!n_added) <- tr;
        incr n_added;
        Triple_store.add cst tr;
        Oracle_store.add ost tr;
        Triple_store.size cst = Oracle_store.size ost
      in
      List.for_all
        (function
          | Add tr -> add tr
          | Again k ->
            !n_added = 0 || add !added.(!n_added - 1 - (k mod !n_added))
          | Probe pats -> List.for_all agree_on pats
          | Probe_added ps ->
            !n_added = 0
            || List.for_all
                 (fun (k, mask) ->
                   let s, p, o = !added.(!n_added - 1 - (k mod !n_added)) in
                   let keep bit x = if mask land bit <> 0 then Some x else None in
                   agree_on (keep 1 s, keep 2 p, keep 4 o))
                 ps
          | Render prefixes ->
            String.equal
              (Turtle.to_turtle ?prefixes cst)
              (Oracle_turtle.to_turtle ?prefixes ost)
            && String.equal (Turtle.to_ntriples cst)
                 (Oracle_turtle.to_ntriples ost))
        ops
      && String.equal (Turtle.to_turtle cst) (Oracle_turtle.to_turtle ost))

(* The SPARQL contract (sparql.mli): SELECT results are always
   distinct, so DISTINCT changes nothing, and rows come in solution
   order — the BGP's matches in insertion order, first occurrence kept. *)
let test_sparql_distinct_contract () =
  let st = Triple_store.create () in
  let p = iri "p" and q = iri "q" in
  List.iter
    (fun (s, pr, o) -> Triple_store.add st (iri s, pr, o))
    [ ("b", p, lit "1"); ("a", p, lit "2"); ("b", q, lit "3"); ("c", p, lit "4");
      ("a", q, lit "5"); ("b", p, lit "6") ];
  let column q =
    let t = Sparql.run st q in
    List.map (fun row -> Value.to_string row.(0)) (Table.rows t)
  in
  let subjects = [ "<b>"; "<a>"; "<c>" ] in
  let check_list = check Alcotest.(list string) in
  check_list "SELECT ?s: first-occurrence order, no repeats" subjects
    (column "SELECT ?s WHERE { ?s ?p ?o }");
  check_list "SELECT DISTINCT ?s: the same rows" subjects
    (column "SELECT DISTINCT ?s WHERE { ?s ?p ?o }");
  check_list "a join keeps solution order" [ "<b>"; "<a>"; "<c>" ]
    (column "SELECT ?s WHERE { ?s <p> ?o . ?s <p> ?o2 }");
  check_list "LIMIT counts distinct rows" [ "<b>"; "<a>" ]
    (column "SELECT ?s WHERE { ?s ?p ?o } LIMIT 2");
  check_list "ORDER BY DESC reverses the stable ascending sort"
    [ "<c>"; "<b>"; "<a>" ]
    (column "SELECT ?s WHERE { ?s ?p ?o } ORDER BY DESC(?s)");
  check_int "ASK through run raises" 1
    (match Sparql.run st "ASK { ?s ?p ?o }" with
    | _ -> 0
    | exception Sparql.Error _ -> 1)

(* The id-level evaluator against the Term-environment one it replaced
   (kept in test support): the same solutions, duplicates included, in
   the same order, for the same number of store probes — over stores
   large enough to cross tail merges and every probe plan. *)
let solve_prop =
  let open QCheck in
  let subject i = iri (Printf.sprintf "s%d" i) in
  let gen_term =
    Gen.(
      frequency
        [ (3, map subject (int_bound 39)); (1, map (fun i -> lit (Printf.sprintf "l%d" i)) (int_bound 9)) ])
  in
  let gen_pred = Gen.map (fun i -> iri (Printf.sprintf "p%d" i)) (Gen.int_bound 4) in
  let gen_triples =
    Gen.(list_size (0 -- 2500) (triple (map subject (int_bound 39)) gen_pred gen_term))
  in
  let gen_pos const =
    Gen.(
      frequency
        [ (5, map (fun v -> Triple_store.Var v) (oneofl [ "x"; "y"; "z" ]));
          (4, map (fun t -> Triple_store.Const t) const);
          (1, return (Triple_store.Const (iri "none"))) ])
  in
  let gen_bgp =
    Gen.(list_size (1 -- 3) (triple (gen_pos gen_term) (gen_pos gen_pred) (gen_pos gen_term)))
  in
  let show = function
    | Triple_store.Var v -> "?" ^ v
    | Triple_store.Const t -> Term.to_ntriples t
  in
  Test.make ~name:"id-level BGP = Term-environment solutions" ~count:60
    (make
       ~print:(fun (ts, bgps) ->
         Printf.sprintf "%d triples; %s" (List.length ts)
           (String.concat " | "
              (List.map
                 (fun bgp ->
                   String.concat " . "
                     (List.map (fun (a, b, c) -> String.concat " " [ show a; show b; show c ]) bgp))
                 bgps)))
       Gen.(pair gen_triples (list_size (1 -- 4) gen_bgp)))
    (fun (triples, bgps) ->
      let module T = Weblab_obs.Telemetry in
      let st = Triple_store.create () in
      List.iter (Triple_store.add st) triples;
      let probes () = Option.value ~default:0 (List.assoc_opt "rdf.store.probes" (T.counters ())) in
      T.set_level T.Counters;
      Fun.protect
        ~finally:(fun () -> T.set_level T.Off)
        (fun () ->
          List.for_all
            (fun bgp ->
              let vars = Triple_store.bgp_variables bgp in
              let p0 = probes () in
              let sol = Triple_store.solve st bgp in
              let p1 = probes () in
              let envs = Oracle_store.store_solutions st bgp in
              let p2 = probes () in
              let decoded =
                List.init (Triple_store.solution_count sol) (fun r ->
                    List.mapi
                      (fun c v ->
                        let id = Triple_store.binding sol r c in
                        if id = Triple_store.unbound_id then None
                        else Some (v, Triple_store.term_of_id st id))
                      vars
                    |> List.filter_map Fun.id)
              in
              let expected =
                List.map
                  (fun env ->
                    List.filter_map
                      (fun v -> Option.map (fun t -> (v, t)) (List.assoc_opt v env))
                      vars)
                  envs
              in
              Triple_store.solution_vars sol = vars
              && List.equal
                   (List.equal (fun (v, t) (v', t') -> v = v' && Term.equal t t'))
                   decoded expected
              && p1 - p0 = p2 - p1)
            bgps))

let test_sparql_errors () =
  let st = sample_store () in
  let expect q =
    match Sparql.run st q with
    | _ -> Alcotest.failf "expected SPARQL error for %S" q
    | exception Sparql.Error _ -> ()
  in
  expect "FOO ?x WHERE { }";
  expect "SELECT ?x { ?x a prov:Entity }";
  expect "SELECT ?x WHERE { ?x a }";
  expect "SELECT ?x WHERE { ?x unknown:p ?y }";
  expect "SELECT ?x WHERE { ?x a prov:Entity . FILTER(?x) }";
  expect "SELECT ?x WHERE { ?x a prov:Entity } LIMIT";
  expect "ASK { ?x a prov:Entity } LIMIT 1 trailing";
  expect "SELECT ?x WHERE { ?x a prov:Entity } ORDER BY"

let () =
  Alcotest.run "rdf"
    [ ( "store",
        [ Alcotest.test_case "dedup" `Quick test_add_dedup;
          Alcotest.test_case "find patterns" `Quick test_find_patterns;
          Alcotest.test_case "term semantics" `Quick test_term_semantics;
          Alcotest.test_case "unbound sentinel" `Quick test_unbound_sentinel;
          Alcotest.test_case "merge boundaries" `Quick test_merge_boundary;
          Alcotest.test_case "write merge work" `Quick test_write_merge_work;
          QCheck_alcotest.to_alcotest interleaved_prop ] );
      ( "bgp",
        [ Alcotest.test_case "single pattern" `Quick test_bgp_query;
          Alcotest.test_case "join" `Quick test_bgp_join;
          Alcotest.test_case "repeated variable" `Quick test_bgp_repeated_var;
          QCheck_alcotest.to_alcotest solve_prop ] );
      ( "serialization",
        [ Alcotest.test_case "ntriples round-trip" `Quick test_ntriples_roundtrip;
          Alcotest.test_case "turtle" `Quick test_turtle_output ] );
      ( "sparql",
        [ Alcotest.test_case "select" `Quick test_sparql_select;
          Alcotest.test_case "join + prefix" `Quick test_sparql_join_and_prefix;
          Alcotest.test_case "select star" `Quick test_sparql_star;
          Alcotest.test_case "literal" `Quick test_sparql_literal;
          Alcotest.test_case "filter" `Quick test_sparql_filter;
          Alcotest.test_case "order by / limit" `Quick test_sparql_order_limit;
          Alcotest.test_case "ask" `Quick test_sparql_ask;
          Alcotest.test_case "numeric order" `Quick test_sparql_numeric_order;
          Alcotest.test_case "distinct keyword" `Quick test_sparql_distinct_keyword;
          Alcotest.test_case "distinct and row order contract" `Quick
            test_sparql_distinct_contract;
          Alcotest.test_case "turtle abbreviation" `Quick test_turtle_abbreviation_edges;
          Alcotest.test_case "errors" `Quick test_sparql_errors ] ) ]
