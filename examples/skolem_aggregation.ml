(* The §5 extensions in action: position-based mappings and the four
   Skolem-function aggregation patterns.

   Scenario: a ClusteringService reads identified Article resources and
   emits unidentified Cluster/Topic summaries grouped by a @topic value —
   exactly the situation Skolem functions address: the produced entities
   have no identifiers of their own, so ground terms f(topic) name them.

   Run with:  dune exec examples/skolem_aggregation.exe *)

open Weblab_xml
open Weblab_prov

let document () =
  Xml_parser.parse
    {|<R id="r1" s="Source" t="0">
        <Article id="art1" topic="energy" s="Source" t="0"/>
        <Article id="art2" topic="energy" s="Source" t="0"/>
        <Article id="art3" topic="defence" s="Source" t="0"/>
        <Article id="art4" topic="defence" s="Source" t="0"/>
        <Article id="art5" topic="energy" s="Source" t="0"/>
        <Cluster topic="energy"/>
        <Cluster topic="defence"/>
        <Digest topic="energy"/>
        <Digest topic="energy"/>
        <Digest topic="defence"/>
      </R>|}

let show title (app : Mapping.application) =
  Printf.printf "=== %s ===\n" title;
  Printf.printf "links (entity -> source):\n";
  List.iter (fun (o, i) -> Printf.printf "  %s -> %s\n" o i) app.Mapping.links;
  if app.Mapping.members <> [] then begin
    Printf.printf "members (entity <- matched XML node):\n";
    List.iter
      (fun (e, m) -> Printf.printf "  %s has member %s\n" e m)
      app.Mapping.members
  end;
  print_newline ()

let apply rule doc =
  let s = Doc_state.final doc in
  Mapping.apply_states rule s s

let () =
  let doc = document () in

  (* Many-to-one, written out in rule syntax: one Cluster gathers all the
     Articles sharing a @topic; cluster(topic) names it. *)
  let many_to_one =
    Rule_parser.parse
      "C1: //Article[$x := @topic] ==> //Cluster[cluster($x) = @id]"
  in
  show "many-to-one: clusters gather articles by topic"
    (apply many_to_one doc);

  (* One-to-many with target-side grouping: Digests sharing a @topic come
     from the articles of that topic; the join on $x restricts the
     cross-product to matching topics. *)
  let grouped =
    Rule_parser.parse
      "C2: //Article[$x := @topic] ==> \
       //Digest[$x := @topic][digest($x) = @id]"
  in
  show "grouped digests: members grouped by the digest's own topic"
    (apply grouped doc);

  (* One-to-one via the library constructor. *)
  let one_to_one =
    Skolem.rule ~kind:Skolem.One_to_one ~f:"copy" ~src:"Article" ~tgt:"Cluster" ()
  in
  show "one-to-one: each article yields one synthetic derivative"
    (apply one_to_one doc);

  (* --- Position-based §5 mapping. --- *)
  let pos_doc =
    Xml_parser.parse
      {|<R id="r1">
          <Batch id="b1"><Item id="i11"/><Item id="i12"/></Batch>
          <Batch id="b2"><Item id="i21"/></Batch>
          <Report id="rep1"/><Report id="rep2"/>
        </R>|}
  in
  let positional =
    Rule_parser.parse
      "P: //Batch[Item][$p := position()]/Item ==> //Report[$p = position()]"
  in
  show "positional: items of the i-th batch feed the i-th report"
    (apply positional pos_doc);

  (* Feed the aggregation into a provenance graph with prov:hadMember. *)
  let app = apply grouped doc in
  let g = Prov_graph.create () in
  List.iter
    (fun (o, i) ->
      Prov_graph.add_link g ~rule:"C2" ~step:0 ~from_uri:o ~to_uri:i)
    app.Mapping.links;
  List.iter
    (fun (entity, member) -> Prov_graph.add_member g ~step:0 ~entity ~member)
    app.Mapping.members;
  print_endline "=== PROV export of the aggregation (Turtle) ===";
  print_string (Prov_export.to_turtle g)
