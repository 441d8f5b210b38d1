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

val store_solutions :
  Triple_store.t ->
  (Triple_store.bgp_term * Triple_store.bgp_term * Triple_store.bgp_term) list ->
  (string * Term.t) list list
(** The same Term-environment evaluation over the columnar store's
    {!Triple_store.find}: the BGP evaluator the columnar store used
    before it evaluated patterns at the id level
    ({!Triple_store.solve}), kept as that evaluator's oracle. *)

val table_of_solutions :
  string list -> (string * Term.t) list list -> Weblab_relalg.Table.t
(** One column per requested variable, each cell the N-Triples encoding
    of the bound term or [""]; duplicate rows dropped
    ({!Weblab_relalg.Table.distinct}). *)

val query :
  t ->
  (Triple_store.bgp_term * Triple_store.bgp_term * Triple_store.bgp_term) list ->
  Weblab_relalg.Table.t
