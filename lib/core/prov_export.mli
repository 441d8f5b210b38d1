(** Export of provenance graphs using the W3C PROV ontology (§6):
    resources become prov:Entity, service calls prov:Activity associated
    with prov:SoftwareAgent services, provenance links
    prov:wasDerivedFrom (plus the implied prov:used and
    prov:wasInformedBy), Skolem entities carry prov:hadMember. *)

open Weblab_rdf
open Weblab_workflow

val entity_term : string -> Term.t
(** The IRI of a resource. *)

val call_term : Trace.call -> Term.t
(** The IRI of a service-call activity. *)

(** {1 Step-ordered export}

    A graph is exported step by step in time order ({!Prov_graph} records
    the step of every label, link and Skolem member).  One step's triples
    are its labels in URI order, then the links and members its call
    added, in insertion order, then — when the trace is supplied — its
    outcome: a call committed after retries carries [wl:attempts]; a
    failed call is a [prov:Activity] marked with [prov:invalidatedAtTime]
    (its burned timestamp), [wl:failed], [wl:failureReason] and
    [wl:attempts].  Failed activities generate no entities — their
    appends were rolled back.  Because items only ever join later steps,
    the triple sequence of a run's prefix is a prefix of the whole
    run's. *)

type cursor
(** How much of a graph (labels, links, members) and of its trace
    (outcomes) an export store already holds.  Cursors count items: two
    graphs built by different backends over the same run prefix agree on
    them. *)

val start : cursor
(** Nothing exported yet. *)

val extend :
  ?log:(Triple_store.triple -> unit) ->
  ?trace:Trace.t ->
  Triple_store.t ->
  Prov_graph.t ->
  cursor ->
  cursor
(** [extend store g c] appends to [store], step by step in time order,
    the triples of the items [g] (and [trace]) gained since [c], and
    returns the cursor past them.  [log] sees every triple the store did
    not hold yet, in order.  Extending from {!start} after every step of
    a run leaves [store] with exactly the triple sequence of {!to_store}
    on the whole run. *)

val to_store :
  ?trace:Trace.t ->
  ?meta:Weblab_obs.Telemetry.meta_activity list ->
  Prov_graph.t ->
  Triple_store.t
(** The RDF graph, queryable with {!Weblab_rdf.Sparql}: {!extend} from
    {!start} into a fresh store.  When [meta] is supplied, the
    meta-provenance of the inference run is added on top (see
    {!add_meta}). *)

val add_meta :
  Triple_store.t -> Weblab_obs.Telemetry.meta_activity list -> unit
(** Meta-provenance: export the inference run itself as PROV.  Each
    recorded service call × rule evaluation becomes a [prov:Activity]
    ([wl:eval/<service>-t<time>-<rule>]) carrying [prov:startedAtTime] and
    [prov:endedAtTime] (microseconds from the run epoch, or ticks under
    the logical clock), [prov:wasAssociatedWith] the service agent and
    [prov:wasInformedBy] the observed call activity.  Every inferred link
    is reified as a [wl:link/...] entity that [prov:wasGeneratedBy] the
    evaluation activity which produced it, with [wl:linkFrom] and
    [wl:linkTo] naming the object-level resources. *)

val meta_to_store :
  Weblab_obs.Telemetry.meta_activity list -> Triple_store.t
(** {!add_meta} into a fresh store (meta-provenance alone). *)

val of_store : Triple_store.t -> Prov_graph.t
(** Inverse of {!to_store}: labels, links, rule names and Skolem members
    are recovered; the [inherited] flag is not part of the RDF encoding
    (round-trip loses it — inherited links come back as plain links). *)

val to_turtle :
  ?trace:Trace.t ->
  ?meta:Weblab_obs.Telemetry.meta_activity list ->
  Prov_graph.t ->
  string

val to_ntriples :
  ?trace:Trace.t ->
  ?meta:Weblab_obs.Telemetry.meta_activity list ->
  Prov_graph.t ->
  string

val to_prov_xml : Prov_graph.t -> string
(** PROV-XML — the alternative serialization §8 mentions; built with the
    library's own XML substrate. *)

