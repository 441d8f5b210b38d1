(** The pre-columnar triple store, kept as the property-test oracle for
    {!Weblab_rdf.Triple_store}: boxed assoc-list triples, string dedup keys,
    filter-based pattern probes.  Same observable contract — property
    tests assert [find]/[count]/[query] agreement and byte-identical
    Turtle (via {!Oracle_turtle}) against the columnar engine. *)

open Weblab_rdf

type triple = Term.t * Term.t * Term.t

type t

val create : unit -> t

val add : t -> triple -> unit
(** Idempotent (set semantics). *)

val mem : t -> triple -> bool

val size : t -> int

val triples : t -> triple list
(** In insertion order. *)

val iter : t -> (triple -> unit) -> unit

type pattern = Term.t option * Term.t option * Term.t option

val find : t -> pattern -> triple list

val count : t -> pattern -> int

val solutions :
  t ->
  (Triple_store.bgp_term * Triple_store.bgp_term * Triple_store.bgp_term) list ->
  (string * Term.t) list list

val query :
  t ->
  (Triple_store.bgp_term * Triple_store.bgp_term * Triple_store.bgp_term) list ->
  Weblab_relalg.Table.t
