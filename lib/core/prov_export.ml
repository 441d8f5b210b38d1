(* Export of provenance graphs to RDF using the PROV ontology (§6).

   - labeled resources become prov:Entity;
   - service calls become prov:Activity, associated with a
     prov:SoftwareAgent per service;
   - a resource's label yields  entity prov:wasGeneratedBy activity  and
     activity prov:used e  for every e the entity was derived from;
   - provenance links yield prov:wasDerivedFrom;
   - call-level lineage is materialized as prov:wasInformedBy;
   - Skolem entities are prov:Entity with prov:hadMember links. *)

open Weblab_rdf
open Weblab_workflow

let entity_term uri = Prov_vocab.resource_iri uri

let call_term (c : Trace.call) =
  Prov_vocab.call_iri ~service:c.Trace.service ~time:c.Trace.time

(* ----- Meta-provenance (the inference run as PROV) -----

   The engine dogfoods its own model: each service call × rule evaluation
   recorded by the telemetry layer becomes a prov:Activity with
   prov:startedAtTime/endedAtTime (microseconds from the run epoch, or
   logical ticks under the deterministic clock), wasAssociatedWith the
   service agent and wasInformedBy the call activity it observed.  Every
   inferred link is reified as a wl:link/... entity that
   prov:wasGeneratedBy the evaluation activity which produced it, with
   wl:linkFrom/wl:linkTo pointing at the object-level resources. *)
let add_meta store (activities : Weblab_obs.Telemetry.meta_activity list) =
  let open Weblab_obs.Telemetry in
  let add s p o = Triple_store.add store (s, p, o) in
  (* Merge duplicates (a rule name attached twice to a service evaluates
     twice for the same call): one activity, the union of the links. *)
  let order = ref [] in
  let merged = Hashtbl.create 64 in
  List.iter
    (fun a ->
      let key = (a.m_service, a.m_time, a.m_rule) in
      match Hashtbl.find_opt merged key with
      | Some prev ->
        Hashtbl.replace merged key
          { prev with
            m_t0 = Float.min prev.m_t0 a.m_t0;
            m_t1 = Float.max prev.m_t1 a.m_t1;
            m_links = prev.m_links @ a.m_links }
      | None ->
        order := key :: !order;
        Hashtbl.add merged key a)
    activities;
  List.iter
    (fun key ->
      let a = Hashtbl.find merged key in
      let act =
        Prov_vocab.eval_iri ~service:a.m_service ~time:a.m_time ~rule:a.m_rule
      in
      add act Prov_vocab.rdf_type Prov_vocab.activity;
      add act Prov_vocab.rdfs_label
        (Term.lit
           (Printf.sprintf "eval %s for %s@t%d" a.m_rule a.m_service a.m_time));
      add act Prov_vocab.wl_evaluates_rule (Term.lit a.m_rule);
      add act Prov_vocab.wl_timestamp (Term.int_lit a.m_time);
      add act Prov_vocab.started_at_time
        (Term.lit (Printf.sprintf "%.3f" a.m_t0));
      add act Prov_vocab.ended_at_time (Term.lit (Printf.sprintf "%.3f" a.m_t1));
      let agent = Prov_vocab.service_iri a.m_service in
      add agent Prov_vocab.rdf_type Prov_vocab.software_agent;
      add act Prov_vocab.was_associated_with agent;
      add act Prov_vocab.was_informed_by
        (call_term { Trace.service = a.m_service; time = a.m_time });
      List.iter
        (fun (from_uri, to_uri) ->
          let l = Prov_vocab.link_iri ~from_uri ~to_uri ~rule:a.m_rule in
          add l Prov_vocab.rdf_type Prov_vocab.entity;
          add l Prov_vocab.was_generated_by act;
          add l Prov_vocab.wl_link_from (entity_term from_uri);
          add l Prov_vocab.wl_link_to (entity_term to_uri))
        a.m_links)
    (List.rev !order)

let meta_to_store activities =
  let store = Triple_store.create () in
  add_meta store activities;
  store

(* ----- The step emitter -----

   A graph is exported step by step, in time order.  One step's triples
   are those of the items the call at that timestamp introduced:

   - its labels, in URI order: the entity, its generating activity and
     the activity's software agent;
   - its links, in insertion order: prov:wasDerivedFrom (plus the rule)
     and the implied λ(b) prov:used a and λ(b) prov:wasInformedBy λ(a);
   - its Skolem members: the aggregation entity and its prov:hadMember;
   - its outcome (§ Failure model): a call committed after retries
     carries its attempt count; a failed call is an activity marked
     invalidated at its burned timestamp, with the failure reason and
     attempt count.  A failed call generated no entity — the
     orchestrator rolled its appends back.

   Items only ever join later steps, so the triple sequence of a run's
   prefix is a prefix of the whole run's: a live session appends each
   commit's step to its store and its write-ahead log as is. *)

type step = {
  mutable labels : (string * Trace.call) list;  (* reversed *)
  mutable links : Prov_graph.link list;  (* reversed *)
  mutable members : (string * string) list;  (* reversed *)
}

(* What one extend already emitted or built.  A call labels many
   entities, a service runs many calls and many links join the same two
   calls: their activity, agent and prov:wasInformedBy triples are
   emitted once per extend, at the first item that needs them, and each
   call IRI is built once.  Skipping only what this extend already
   emitted leaves the inserted sequence unchanged: the first emission
   inserted the triple or found it stored. *)
type memo = {
  call_terms : (Trace.call, Term.t) Hashtbl.t;
  activities : (Trace.call, unit) Hashtbl.t;  (* activity triples emitted *)
  agents : (string, Term.t) Hashtbl.t;  (* agent triples emitted *)
  informed : (Trace.call * Trace.call, unit) Hashtbl.t;  (* (b, a) emitted *)
}

let memo () =
  { call_terms = Hashtbl.create 16; activities = Hashtbl.create 16;
    agents = Hashtbl.create 8; informed = Hashtbl.create 16 }

let call_term_in memo call =
  match Hashtbl.find_opt memo.call_terms call with
  | Some a -> a
  | None ->
    let a = call_term call in
    Hashtbl.add memo.call_terms call a;
    a

let add_agent add memo service =
  match Hashtbl.find_opt memo.agents service with
  | Some agent -> agent
  | None ->
    let agent = Prov_vocab.service_iri service in
    Hashtbl.add memo.agents service agent;
    add agent Prov_vocab.rdf_type Prov_vocab.software_agent;
    add agent Prov_vocab.rdfs_label (Term.lit service);
    agent

let add_label add memo uri (call : Trace.call) =
  let e = entity_term uri in
  let a = call_term_in memo call in
  add e Prov_vocab.rdf_type Prov_vocab.entity;
  add e Prov_vocab.rdfs_label (Term.lit uri);
  add e Prov_vocab.was_generated_by a;
  if not (Hashtbl.mem memo.activities call) then begin
    Hashtbl.add memo.activities call ();
    add a Prov_vocab.rdf_type Prov_vocab.activity;
    add a Prov_vocab.rdfs_label
      (Term.lit (Printf.sprintf "%s@t%d" call.Trace.service call.Trace.time));
    add a Prov_vocab.wl_timestamp (Term.int_lit call.Trace.time);
    let agent = add_agent add memo call.Trace.service in
    add a Prov_vocab.was_associated_with agent
  end

let add_link add memo g { Prov_graph.from_uri; to_uri; rule; inherited } =
  let b = entity_term from_uri and a = entity_term to_uri in
  add b Prov_vocab.was_derived_from a;
  if rule <> "" && not inherited then add b Prov_vocab.wl_rule (Term.lit rule);
  match Prov_graph.label g from_uri with
  | Some cb ->
    let act_b = call_term_in memo cb in
    add act_b Prov_vocab.used a;
    (match Prov_graph.label g to_uri with
     | Some ca when ca <> cb && not (Hashtbl.mem memo.informed (cb, ca)) ->
       Hashtbl.add memo.informed (cb, ca) ();
       add act_b Prov_vocab.was_informed_by (call_term_in memo ca)
     | _ -> ())
  | None -> ()

let add_member add entity member =
  let e = entity_term entity in
  add e Prov_vocab.rdf_type Prov_vocab.entity;
  add e Prov_vocab.rdfs_label (Term.lit entity);
  add e Prov_vocab.had_member (entity_term member)

let add_outcome add memo trace time =
  match Trace.attempted_call trace time, Trace.outcome_at trace time with
  | Some call, Some (Trace.Retried n) ->
    add (call_term_in memo call) Prov_vocab.wl_attempts (Term.int_lit (n + 1))
  | Some call, Some (Trace.Failed reason) ->
    let a = call_term_in memo call in
    add a Prov_vocab.rdf_type Prov_vocab.activity;
    add a Prov_vocab.rdfs_label
      (Term.lit (Printf.sprintf "%s@t%d (failed)" call.Trace.service time));
    add a Prov_vocab.wl_timestamp (Term.int_lit time);
    add a Prov_vocab.invalidated_at_time (Term.int_lit time);
    add a Prov_vocab.wl_failed (Term.lit "true");
    add a Prov_vocab.wl_failure_reason (Term.lit reason);
    (match Trace.attempt_count trace time with
     | 0 -> ()
     | n -> add a Prov_vocab.wl_attempts (Term.int_lit n));
    let agent = add_agent add memo call.Trace.service in
    add a Prov_vocab.was_associated_with agent
  | _ -> ()

(* A step's labels are ordered by call time, then URI: the nodes it
   promoted (labeled with the older calls that created them) come first,
   then its own resources. *)
let by_time_then_uri (u, (a : Trace.call)) (v, (b : Trace.call)) =
  let c = compare a.Trace.time b.Trace.time in
  if c <> 0 then c else String.compare u v

let emit_step add memo g trace time (step : step) =
  List.iter
    (fun (uri, call) -> add_label add memo uri call)
    (List.sort by_time_then_uri step.labels);
  List.iter (add_link add memo g) (List.rev step.links);
  List.iter
    (fun (entity, member) -> add_member add entity member)
    (List.rev step.members);
  Option.iter (fun tr -> add_outcome add memo tr time) trace

type cursor = {
  c_labels : int;
  c_links : int;
  c_members : int;
  c_time : int;  (* the first step whose outcome is still due *)
}

let start = { c_labels = 0; c_links = 0; c_members = 0; c_time = 0 }

let extend ?(log = ignore) ?trace store g c =
  let add s p o =
    let n = Triple_store.size store in
    Triple_store.add store (s, p, o);
    if Triple_store.size store > n then log (s, p, o)
  in
  let steps = Hashtbl.create 4 in
  let step time =
    match Hashtbl.find_opt steps time with
    | Some st -> st
    | None ->
      let st = { labels = []; links = []; members = [] } in
      Hashtbl.add steps time st;
      st
  in
  Prov_graph.iter_labels_from g c.c_labels (fun uri call time ->
      let st = step time in
      st.labels <- (uri, call) :: st.labels);
  Prov_graph.iter_links_from g c.c_links (fun l time ->
      let st = step time in
      st.links <- l :: st.links);
  Prov_graph.iter_members_from g c.c_members (fun entity member time ->
      let st = step time in
      st.members <- (entity, member) :: st.members);
  (* Failed calls, and retried ones that labeled nothing, are steps with
     an outcome only. *)
  let horizon =
    match trace with
    | None -> c.c_time
    | Some tr ->
      let horizon = max c.c_time (Trace.last_time tr + 1) in
      for time = c.c_time to horizon - 1 do
        match Trace.outcome_at tr time with
        | Some (Trace.Failed _ | Trace.Retried _) -> ignore (step time)
        | Some Trace.Ok | None -> ()
      done;
      horizon
  in
  let memo = memo () in
  Hashtbl.fold (fun time _ acc -> time :: acc) steps []
  |> List.sort compare
  |> List.iter (fun time ->
         let due = time >= c.c_time && time < horizon in
         emit_step add memo g
           (if due then trace else None)
           time (Hashtbl.find steps time));
  { c_labels = Prov_graph.label_count g; c_links = Prov_graph.size g;
    c_members = Prov_graph.member_count g; c_time = horizon }

let to_store ?trace ?meta (g : Prov_graph.t) =
  let store = Triple_store.create () in
  ignore (extend ?trace store g start);
  Option.iter (add_meta store) meta;
  store

(* Inverse of {!to_store}: rebuild a provenance graph from its RDF
   encoding.  Entity labels come from prov:wasGeneratedBy + the activity's
   wl:timestamp/association; links from prov:wasDerivedFrom; the inferring
   rule from wl:inferredByRule (attached to the derived entity, so rule
   attribution is per-entity rather than per-link — the one lossy spot of
   the RDF encoding); members from prov:hadMember. *)
let of_store (store : Triple_store.t) : Prov_graph.t =
  let g = Prov_graph.create () in
  let local_name term ~prefix =
    match term with
    | Term.Iri iri ->
      let n = String.length prefix in
      if String.length iri > n && String.sub iri 0 n = prefix then
        Some (String.sub iri n (String.length iri - n))
      else None
    | Term.Lit _ | Term.Bnode _ -> None
  in
  let resource_prefix = Prov_vocab.weblab_ns ^ "resource/" in
  let label_of term =
    match local_name term ~prefix:resource_prefix with
    | Some u -> Some u
    | None -> (
      (* rdfs:label fallback covers full-IRI resources *)
      match Triple_store.find store (Some term, Some Prov_vocab.rdfs_label, None) with
      | (_, _, Term.Lit (l, _)) :: _ -> Some l
      | _ -> (
        match term with Term.Iri iri -> Some iri | _ -> None))
  in
  let call_of_activity act =
    let service =
      match
        Triple_store.find store (Some act, Some Prov_vocab.was_associated_with, None)
      with
      | (_, _, agent) :: _ ->
        local_name agent ~prefix:(Prov_vocab.weblab_ns ^ "service/")
      | [] -> None
    in
    let time =
      match
        Triple_store.find store (Some act, Some Prov_vocab.wl_timestamp, None)
      with
      | (_, _, Term.Lit (t, _)) :: _ -> int_of_string_opt t
      | _ -> None
    in
    match service, time with
    | Some service, Some time -> Some { Trace.service; time }
    | _ -> None
  in
  (* λ from generation triples *)
  Triple_store.iter store (fun (s, p, o) ->
      if Term.equal p Prov_vocab.was_generated_by then
        match label_of s, call_of_activity o with
        | Some uri, Some call -> Prov_graph.set_label g uri call
        | _ -> ());
  (* the rule each derived entity was inferred by *)
  let rule_of entity =
    match Triple_store.find store (Some entity, Some Prov_vocab.wl_rule, None) with
    | (_, _, Term.Lit (r, _)) :: _ -> r
    | _ -> ""
  in
  Triple_store.iter store (fun (s, p, o) ->
      if Term.equal p Prov_vocab.was_derived_from then
        match label_of s, label_of o with
        | Some from_uri, Some to_uri ->
          Prov_graph.add_link g ~rule:(rule_of s) ~from_uri ~to_uri
        | _ -> ());
  Triple_store.iter store (fun (s, p, o) ->
      if Term.equal p Prov_vocab.had_member then
        match label_of s, label_of o with
        | Some entity, Some member ->
          (* A member joined its entity at the call that generated it. *)
          let step =
            match Prov_graph.label g member with
            | Some call -> call.Trace.time
            | None -> 0
          in
          Prov_graph.add_member g ~step ~entity ~member
        | _ -> ());
  g

let to_turtle ?trace ?meta g = Turtle.to_turtle (to_store ?trace ?meta g)

let to_ntriples ?trace ?meta g = Turtle.to_ntriples (to_store ?trace ?meta g)

(* PROV-XML serialization (§8 points out the RDF representation "can
   easily be replaced by other formats like PROV-XML").  Built with the
   library's own XML substrate. *)
let to_prov_xml (g : Prov_graph.t) =
  let open Weblab_xml in
  let doc = Tree.create () in
  let root =
    Tree.new_element doc ~parent:Tree.no_node "prov:document"
      ~attrs:
        [ ("xmlns:prov", "http://www.w3.org/ns/prov#");
          ("xmlns:wl", Prov_vocab.weblab_ns) ]
  in
  let with_text parent name text =
    let e = Tree.new_element doc ~parent name in
    ignore (Tree.new_text doc ~parent:e text);
    e
  in
  let call_id (c : Trace.call) = Printf.sprintf "%s-%d" c.Trace.service c.Trace.time in
  let seen_calls = Hashtbl.create 8 in
  List.iter
    (fun (uri, (call : Trace.call)) ->
      let e =
        Tree.new_element doc ~parent:root "prov:entity"
          ~attrs:[ ("prov:id", uri) ]
      in
      ignore (with_text e "prov:label" uri);
      if not (Hashtbl.mem seen_calls call) then begin
        Hashtbl.add seen_calls call ();
        let a =
          Tree.new_element doc ~parent:root "prov:activity"
            ~attrs:[ ("prov:id", call_id call) ]
        in
        ignore (with_text a "prov:label" call.Trace.service);
        ignore (with_text a "wl:timestamp" (string_of_int call.Trace.time))
      end;
      let gen = Tree.new_element doc ~parent:root "prov:wasGeneratedBy" in
      ignore (Tree.new_element doc ~parent:gen "prov:entity"
                ~attrs:[ ("prov:ref", uri) ]);
      ignore (Tree.new_element doc ~parent:gen "prov:activity"
                ~attrs:[ ("prov:ref", call_id call) ]))
    (Prov_graph.labeled_resources g);
  List.iter
    (fun { Prov_graph.from_uri; to_uri; rule; inherited } ->
      let d =
        Tree.new_element doc ~parent:root "prov:wasDerivedFrom"
          ~attrs:
            ((if rule = "" then [] else [ ("wl:rule", rule) ])
            @ if inherited then [ ("wl:inherited", "true") ] else [])
      in
      ignore (Tree.new_element doc ~parent:d "prov:generatedEntity"
                ~attrs:[ ("prov:ref", from_uri) ]);
      ignore (Tree.new_element doc ~parent:d "prov:usedEntity"
                ~attrs:[ ("prov:ref", to_uri) ]))
    (Prov_graph.links g);
  List.iter
    (fun entity ->
      let e =
        Tree.new_element doc ~parent:root "prov:entity"
          ~attrs:[ ("prov:id", entity); ("wl:skolem", "true") ]
      in
      ignore e;
      List.iter
        (fun member ->
          let m = Tree.new_element doc ~parent:root "prov:hadMember" in
          ignore (Tree.new_element doc ~parent:m "prov:collection"
                    ~attrs:[ ("prov:ref", entity) ]);
          ignore (Tree.new_element doc ~parent:m "prov:entity"
                    ~attrs:[ ("prov:ref", member) ]))
        (Prov_graph.members g entity))
    (Prov_graph.skolem_entities g);
  Printer.to_string ~indent:true doc

(* OPM (Open Provenance Model) XML — the format the related-work systems
   (Taverna/Janus, Kepler) exchange; kept for interoperability alongside
   PROV.  Artifacts/processes mirror prov:Entity/prov:Activity. *)
let to_opm_xml (g : Prov_graph.t) =
  let open Weblab_xml in
  let doc = Tree.create () in
  let root =
    Tree.new_element doc ~parent:Tree.no_node "opm:opmGraph"
      ~attrs:[ ("xmlns:opm", "http://openprovenance.org/model/v1.1.a") ]
  in
  let artifacts = Tree.new_element doc ~parent:root "opm:artifacts" in
  let processes = Tree.new_element doc ~parent:root "opm:processes" in
  let deps = Tree.new_element doc ~parent:root "opm:causalDependencies" in
  let call_id (c : Trace.call) = Printf.sprintf "%s-%d" c.Trace.service c.Trace.time in
  let seen_calls = Hashtbl.create 8 in
  List.iter
    (fun (uri, (call : Trace.call)) ->
      ignore
        (Tree.new_element doc ~parent:artifacts "opm:artifact"
           ~attrs:[ ("id", uri) ]);
      if not (Hashtbl.mem seen_calls call) then begin
        Hashtbl.add seen_calls call ();
        ignore
          (Tree.new_element doc ~parent:processes "opm:process"
             ~attrs:[ ("id", call_id call) ])
      end;
      let gen = Tree.new_element doc ~parent:deps "opm:wasGeneratedBy" in
      ignore (Tree.new_element doc ~parent:gen "opm:effect"
                ~attrs:[ ("ref", uri) ]);
      ignore (Tree.new_element doc ~parent:gen "opm:cause"
                ~attrs:[ ("ref", call_id call) ]))
    (Prov_graph.labeled_resources g);
  List.iter
    (fun { Prov_graph.from_uri; to_uri; _ } ->
      let d = Tree.new_element doc ~parent:deps "opm:wasDerivedFrom" in
      ignore (Tree.new_element doc ~parent:d "opm:effect"
                ~attrs:[ ("ref", from_uri) ]);
      ignore (Tree.new_element doc ~parent:d "opm:cause"
                ~attrs:[ ("ref", to_uri) ]))
    (Prov_graph.links g);
  Printer.to_string ~indent:true doc
