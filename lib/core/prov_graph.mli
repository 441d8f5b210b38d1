(** Provenance graphs — Definition 3: labeled DAGs connecting each
    resource of the final document to the resources used to generate it.
    The two tables of Figure 2 — Source (the labeling function λ) and
    Provenance (the edge set E) — are both views of this structure. *)

open Weblab_workflow

type link = {
  from_uri : string;  (** the generated resource (the newer endpoint) *)
  to_uri : string;    (** the resource it was derived from *)
  rule : string;      (** name of the mapping rule that inferred it *)
  inherited : bool;   (** implicit link obtained by structural propagation *)
}

type t

val create : unit -> t

val of_trace : Trace.t -> t
(** A graph with λ populated from the execution trace and no links yet. *)

(** {1 The labeling function λ} *)

val set_label : t -> string -> Trace.call -> unit

val label : t -> string -> Trace.call option

val labeled_resources : t -> (string * Trace.call) list
(** Sorted by call timestamp, then by URI. *)

(** {1 Links} *)

val add_link :
  ?rule:string -> ?inherited:bool -> t -> from_uri:string -> to_uri:string -> unit
(** Idempotent; self-links are silently dropped (Definition 3 requires a
    DAG). *)

val links : t -> link list
(** In insertion order. *)

val size : t -> int
(** Number of links. *)

val has_link : ?rule:string -> t -> from_uri:string -> to_uri:string -> bool

val depends_on : t -> string -> string list
(** Direct dependencies of a resource, sorted. *)

val used_by : t -> string -> string list
(** Resources directly derived from the given one, sorted. *)

(** {1 Skolem aggregation entities (§5)} *)

val add_member : t -> entity:string -> member:string -> unit

val members : t -> string -> string list

val skolem_entities : t -> string list

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
