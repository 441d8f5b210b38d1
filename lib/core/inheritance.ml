(* Inherited (implicit) provenance links — §4.

   Every explicit link b → a propagates structurally: descendants of b
   inherit all the provenance of b, and b also depends on everything
   "around" a — the descendants of a (they are part of what was read) and
   the ancestors of a (a's content is part of theirs).  In the running
   example, 8 → 4 induces 8 → 6 (6 is a descendant of 4), and 4 → 3
   induces 4 → 2 (2 is an ancestor of 3). *)

open Weblab_xml

(* Nodes inheriting the "generated" end of a link: b and its descendants. *)
let generated_side doc nb = Tree.descendant_or_self doc nb

(* Nodes inheriting the "used" end: a, its descendants and its ancestors. *)
let used_side doc na = Tree.descendant_or_self doc na @ Tree.ancestors doc na

(* Extend [g] with the inherited closure of its explicit links.
   [resources_only] (default true) keeps the graph over labeled resources,
   as in Figure 2; with [false] the closure also reaches unlabeled nodes,
   identified by their "#<node-id>" pseudo-URI. *)
let close ?(resources_only = true) doc (g : Prov_graph.t) =
  (* Link ends resolve through the document's URI table: O(1) each. *)
  let uri_of n =
    match Tree.uri doc n with
    | Some u -> Some u
    | None -> if resources_only then None else Some (Printf.sprintf "#%d" n)
  in
  let explicit = List.filter (fun l -> not l.Prov_graph.inherited) (Prov_graph.links g) in
  List.iter
    (fun { Prov_graph.from_uri; to_uri; rule; _ } ->
      match Tree.find_resource doc from_uri, Tree.find_resource doc to_uri with
      | Some nb, Some na ->
        List.iter
          (fun b' ->
            List.iter
              (fun a' ->
                match uri_of b', uri_of a' with
                | Some ub, Some ua ->
                  if not (String.equal ub from_uri && String.equal ua to_uri)
                  then Prov_graph.add_link g ~rule ~inherited:true
                         ~from_uri:ub ~to_uri:ua
                | _ -> ())
              (used_side doc na))
          (generated_side doc nb)
      | _ ->
        (* Skolem entities have no node in the document: their members carry
           the structural propagation instead. *)
        ())
    explicit;
  g
