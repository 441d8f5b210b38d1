(** Provenance graphs — Definition 3: labeled DAGs connecting each
    resource of the final document to the resources used to generate it.
    Of the two tables of Figure 2, Source (the labeling function λ) is
    the trace the graph reads; the graph holds only Provenance (E). *)

open Weblab_workflow

type link = {
  from_uri : string;  (** the generated resource (the newer endpoint) *)
  to_uri : string;    (** the resource it was derived from *)
  rule : string;      (** name of the mapping rule that inferred it *)
  inherited : bool;   (** implicit link obtained by structural propagation *)
}

type t

val create : unit -> t
(** An empty graph over a trace of its own, which {!set_label} writes. *)

val of_trace : Trace.t -> t
(** A graph with no links whose λ is the trace, shared, not copied. *)

val attach_trace : t -> Trace.t -> unit
(** Make the trace the graph's λ, in constant time. *)

(** {1 Steps}

    Every label, link and Skolem member carries the {e step} that added
    it: the timestamp of the call during which it entered the graph.  The
    PROV export ({!Prov_export}) emits a graph step by step in that
    order, which is what makes the export of a run's prefix a prefix of
    the export of the whole run. *)

(** {1 The labeling function λ: the graph's trace entries} *)

val set_label : ?step:int -> t -> string -> Trace.call -> unit
(** {!Trace.add_entry} on the graph's trace: [step] defaults to the
    call's time, and relabeling keeps the first step. *)

val label : t -> string -> Trace.call option

val label_count : t -> int
(** Number of labeled resources, in constant time. *)

val labeled_resources : t -> (string * Trace.call) list
(** Sorted by call timestamp, then by URI. *)

(** {1 Links} *)

val add_link :
  ?rule:string ->
  ?inherited:bool ->
  ?step:int ->
  t ->
  from_uri:string ->
  to_uri:string ->
  unit
(** Idempotent in O(out-degree); self-links are silently dropped
    (Definition 3 requires a DAG).  [step] is the time of the call that
    inferred the link; without it the link belongs to the step its
    [from_uri] was labeled at. *)

val links : t -> link list
(** In insertion order. *)

val size : t -> int
(** Number of links. *)

val has_link : ?rule:string -> t -> from_uri:string -> to_uri:string -> bool

val depends_on : t -> string -> string list
(** Direct dependencies of a resource, sorted.  Reads the successor
    adjacency {!add_link} maintains: O(out-degree), not O(links). *)

val used_by : t -> string -> string list
(** Resources directly derived from the given one, sorted; O(in-degree)
    through the predecessor adjacency. *)

(** {1 Skolem aggregation entities (§5)} *)

val add_member : t -> step:int -> entity:string -> member:string -> unit
(** [step] is the time of the call that inferred the membership. *)

val members : t -> string -> string list
(** In insertion order. *)

val member_count : t -> int
(** Number of {!add_member} calls so far. *)

val skolem_entities : t -> string list
(** In first-insertion order. *)

(** {1 Step-attributed suffixes}

    What an incremental export reads: the items added since the graph
    held [k] of them, each with its step.  Labels come in the trace's
    order, links and members in insertion order.  A link added without a
    step reports its [from_uri]'s label step, or [max_int] when that end
    is unlabeled. *)

val iter_labels_from : t -> int -> (string -> Trace.call -> int -> unit) -> unit

val iter_links_from : t -> int -> (link -> int -> unit) -> unit

val iter_members_from : t -> int -> (string -> string -> int -> unit) -> unit

(** {1 Invariants} *)

val temporally_sound : t -> bool
(** Every link points backwards in time: λ(from).time > λ(to).time
    whenever both endpoints are labeled. *)

val is_acyclic : t -> bool
(** Kahn's algorithm over the link relation. *)

(** {1 Display} *)

val provenance_table : ?with_rule:bool -> t -> string
(** The Provenance table of Figure 2 (From | To), optionally with the
    inferring rule. *)
