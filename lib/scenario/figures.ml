(* Renderers regenerating every figure and worked example of the paper
   from a live execution of the scenario.  Each function returns the
   artifact as a string; `bin/main.exe figures` prints them and the paper
   test-suite checks the embedded expectations. *)

open Weblab_xml
open Weblab_relalg
open Weblab_workflow
open Weblab_prov

let abbrev name =
  match List.assoc_opt name Paper.abbreviations with
  | Some a -> a
  | None -> name

(* The paper numbers element nodes 1..11 in document order; text nodes are
   not numbered.  A node displays its URI once it has one — but only from
   the state in which it acquired it (node 3 is "3" in d0 and "r3" from
   d1 on). *)
let element_ordinals doc =
  let tbl = Hashtbl.create 32 in
  let next = ref 0 in
  if Tree.has_root doc then
    Tree.iter_subtree doc (Tree.root doc) (fun n ->
        if Tree.is_element doc n then begin
          incr next;
          Hashtbl.replace tbl n !next
        end);
  tbl

let node_label ?(at = max_int) ~ordinals doc n =
  match Tree.uri doc n with
  | Some u when Tree.uri_time doc n <= at -> u
  | Some _ | None -> (
    match Hashtbl.find_opt ordinals n with
    | Some i -> string_of_int i
    | None -> Printf.sprintf "#%d" n)

(* --- Figure 1: the workflow and the document evolution --- *)

let fig1 (e : Paper.t) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "Figure 1(a) — control flow:\n  ";
  Buffer.add_string buf
    (String.concat " --> "
       ("d0" :: List.map Service.name Paper.services));
  Buffer.add_string buf "\n\nFigure 1(b) — data flow (new resources per call):\n";
  List.iter
    (fun (c : Trace.call) ->
      if c.Trace.time > 0 then
        Buffer.add_string buf
          (Printf.sprintf "  t%d %-18s adds: %s\n" c.Trace.time c.Trace.service
             (String.concat ", " (Trace.resources_of_call e.Paper.trace c))))
    (Trace.calls e.Paper.trace);
  Buffer.contents buf

(* --- Figure 4: the document states as trees --- *)

let render_state (e : Paper.t) i =
  let doc = e.Paper.doc in
  let state = Paper.state e i in
  let ordinals = element_ordinals doc in
  let buf = Buffer.create 256 in
  let rec go depth n =
    if Doc_state.visible state n then begin
      if Tree.is_element doc n then begin
        Buffer.add_string buf (String.make (2 * depth) ' ');
        Buffer.add_string buf
          (Printf.sprintf "%s %s\n" (abbrev (Tree.name doc n))
             (node_label ~at:i ~ordinals doc n));
        List.iter (go (depth + 1)) (Tree.children doc n)
      end
    end
  in
  Buffer.add_string buf (Printf.sprintf "d%d:\n" i);
  go 1 (Tree.root doc);
  Buffer.contents buf

let fig4 e =
  String.concat "\n" (List.map (render_state e) [ 0; 1; 2; 3 ])

(* --- Figure 2: Source and Provenance tables --- *)

let explicit_graph ?(strategy = `Rewrite) (e : Paper.t) =
  Engine.provenance ~strategy
    { Engine.doc = e.Paper.doc; trace = e.Paper.trace }
    e.Paper.rulebook

let inherited_graph ?(strategy = `Rewrite) (e : Paper.t) =
  Engine.provenance ~strategy ~inheritance:true
    { Engine.doc = e.Paper.doc; trace = e.Paper.trace }
    e.Paper.rulebook

let fig2 e =
  let g = explicit_graph e in
  let gi = inherited_graph e in
  let inherited_links =
    Prov_graph.links gi
    |> List.filter (fun l -> l.Prov_graph.inherited)
    |> List.map (fun l -> Printf.sprintf "%s -> %s" l.Prov_graph.from_uri l.Prov_graph.to_uri)
  in
  Printf.sprintf
    "Source (execution trace):\n%s\nProvenance (explicit links):\n%s\n\
     Inherited links: %s\n"
    (Trace.source_table e.Paper.trace)
    (Prov_graph.provenance_table g)
    (String.concat ", " inherited_links)

(* --- Figure 3: the mappings --- *)

let fig3 (_ : Paper.t) = String.concat "\n" Paper.mapping_syntax ^ "\n"

(* --- Example 5: embedding tables --- *)

let pattern_result (e : Paper.t) ~phi ~state:i =
  let t = Weblab_xpath.Eval.eval_state (Paper.state e i) (Paper.phi phi) in
  let cols =
    List.filter (fun c -> c <> "node") (Table.columns t)
    |> List.map (fun c -> (c, "$" ^ c))
  in
  Table.rename (Table.project t (List.map fst cols)) cols

let ex5 e =
  let render (phi, state) =
    Printf.sprintf "R_phi%d(d%d):\n%s" phi state
      (Table.to_string (pattern_result e ~phi ~state))
  in
  String.concat "\n" (List.map render [ (1, 1); (3, 2); (4, 2); (4, 3) ])

(* --- Example 6: applications of mapping rules to document states --- *)

(* The example's rules: M1 : φ1 ⇒ φ3 and M2 : φ4 ⇒ φ4. *)
let example6_rule = function
  | 1 -> Rule.make ~name:"M1" ~source:(Paper.phi 1) ~target:(Paper.phi 3) ()
  | 2 -> Rule.make ~name:"M2" ~source:(Paper.phi 4) ~target:(Paper.phi 4) ()
  | n -> invalid_arg (Printf.sprintf "example6_rule %d" n)

let ex6_table e ~rule ~from_state ~to_state =
  let r = example6_rule rule in
  let t = Mapping.join_table r (Paper.state e from_state) (Paper.state e to_state) in
  let keep =
    List.filter
      (fun c -> not (String.length c > 4 && String.sub c 0 4 = "node"))
      (Table.columns t)
  in
  Table.rename (Table.project t keep)
    (List.map (fun c -> (c, "$" ^ c)) keep)

let ex6 e =
  Printf.sprintf "M1(d1, d2) = rho_in R_phi1(d1) |X| rho_out R_phi3(d2):\n%s\n\
                  M2(d2, d3) = rho_in R_phi4(d2) |X| rho_out R_phi4(d3):\n%s"
    (Table.to_string (ex6_table e ~rule:1 ~from_state:1 ~to_state:2))
    (Table.to_string (ex6_table e ~rule:2 ~from_state:2 ~to_state:3))

(* --- Example 7: restriction to out(c3) --- *)

let ex7_links e =
  let r = example6_rule 2 in
  let call = { Trace.service = "Translator"; time = 3 } in
  let app = Mapping.apply_call r ~doc:e.Paper.doc ~call in
  app.Mapping.links

let ex7 e =
  let links = ex7_links e in
  "M2(c3) = M2(d2, d3) |X| out(c3):\n"
  ^ String.concat "\n" (List.map (fun (o, i) -> Printf.sprintf "%s -> %s" o i) links)
  ^ "\n"

(* --- Examples 8 and 9: the XQuery compilation --- *)

let ex8 (_ : Paper.t) =
  let q = Weblab_xquery.Xq_compile.compile_pattern_query (Paper.phi 1) in
  Weblab_xquery.Xq_print.to_string q

let ex9_rule () =
  Rule.make ~name:"M2" ~source:(Paper.phi 1) ~target:(Paper.phi 3) ()

let ex9_queries () =
  let r = ex9_rule () in
  let q =
    Weblab_xquery.Xq_compile.compile_rule_query (Rule.source r) (Rule.target r)
      ~service:"LanguageExtractor" ~time:2
  in
  (q, Weblab_xquery.Xq_optimize.merge_key_joins q)

let ex9 (_ : Paper.t) =
  let naive, optimized = ex9_queries () in
  Printf.sprintf "Generated query:\n%s\n\nOptimized query:\n%s\n"
    (Weblab_xquery.Xq_print.to_string naive)
    (Weblab_xquery.Xq_print.to_string optimized)

(* --- All artifacts, in paper order --- *)

let all e =
  [ ("Figure 1", fig1 e); ("Figure 2", fig2 e); ("Figure 3", fig3 e);
    ("Figure 4", fig4 e); ("Example 5", ex5 e); ("Example 6", ex6 e);
    ("Example 7", ex7 e); ("Example 8", ex8 e); ("Example 9", ex9 e) ]
