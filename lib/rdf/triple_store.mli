(** Dictionary-encoded columnar RDF triple store — the stand-in for the
    paper's Sesame repository.

    Terms are interned to dense int ids ({!Term_dict}); triples live in
    three parallel int columns in insertion order.  Pattern probes are
    binary-searched range scans over sorted SPO/POS/OSP runs (merged
    base + small unsorted tail, LSM-style), so every bound combination
    is answered without a residual filter and [count] allocates nothing.

    The previous boxed assoc-list implementation survives as
    {!Oracle_store}; property tests assert both agree on [find], [query],
    [count] and produce byte-identical Turtle. *)

type triple = Term.t * Term.t * Term.t

type t

val create : unit -> t

val add : t -> triple -> unit
(** Idempotent (set semantics).  Dedup is an integer probe over the
    sorted base plus a small hash set over the unsorted tail. *)

val mem : t -> triple -> bool

val size : t -> int

val triples : t -> triple list
(** In insertion order. *)

val iter : t -> (triple -> unit) -> unit

val compact : t -> unit
(** Merge the tail into the sorted base and trim growth slack on the
    columns and the dictionary.  Purely an allocation optimization —
    observable behaviour is unchanged. *)

(** {1 Instrumentation} *)

type store_stats = {
  st_triples : int;
  st_terms : int;  (** distinct terms in the dictionary *)
  st_base : int;  (** triples covered by the merged sorted runs *)
  st_tail : int;  (** recent inserts pending a run merge *)
  st_merges : int;  (** run merges performed over the store's life *)
}

val stats : t -> store_stats

(** {1 Pattern lookup} *)

type pattern = Term.t option * Term.t option * Term.t option
(** [None] is a wildcard. *)

val find : t -> pattern -> triple list
(** Matches in insertion order; a binary-searched range scan on the run
    whose key order makes the bound positions a prefix. *)

val count : t -> pattern -> int
(** Same contract as [List.length (find t pat)] but computed from range
    bounds — no result list is materialized. *)

(** {1 Basic graph patterns}

    Variables are written as strings; a BGP is a list of triple patterns
    where each position is either a constant term or a variable. *)

type bgp_term =
  | Const of Term.t
  | Var of string

val query : t -> (bgp_term * bgp_term * bgp_term) list -> Weblab_relalg.Table.t
(** Solutions of the conjunctive pattern, one column per variable.  Term
    bindings are encoded as their N-Triples string in the result table. *)

val solutions : t -> (bgp_term * bgp_term * bgp_term) list ->
  (string * Term.t) list list
(** The raw variable environments, for callers that post-process terms
    (SPARQL FILTER/ORDER BY). *)

val bgp_variables : (bgp_term * bgp_term * bgp_term) list -> string list
(** Variables of a pattern, first-occurrence order. *)

val unbound : Weblab_relalg.Value.t
(** Sentinel for a variable left unbound by a solution (possible when a
    caller passes an explicit variable list wider than the BGP binds):
    the empty string.  {!table_of_solutions} fills unbound cells with
    this value rather than dropping the row, so row counts match the
    solution count; it is distinguishable from every real binding
    because term encodings are never empty ([<iri>], ["lit"], [_:b]). *)

val table_of_solutions :
  string list -> (string * Term.t) list list -> Weblab_relalg.Table.t
(** One column per requested variable; cells carry the N-Triples
    encoding of the bound term or {!unbound}. *)
