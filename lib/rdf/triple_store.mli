(** Dictionary-encoded columnar RDF triple store — the stand-in for the
    paper's Sesame repository.

    Terms are interned to dense int ids ({!Term_dict}); triples live in
    three parallel int columns in insertion order.  Pattern probes are
    binary-searched range scans over sorted SPO/POS/OSP runs (a merged
    base plus an unsorted tail, LSM-style), so every bound combination
    is answered without a residual filter and [count] allocates nothing.

    Writes merge the tail into the base only once the tail is as large
    as the base, so building a store of n triples merges each triple
    O(1) times amortized ({!store_stats} counts the work).  A probe
    ([find], [count] and the BGP entry points) first merges a tail longer
    than 1024 triples, so {b every read may mutate the store}: a store
    shared between threads needs its reads serialized with its writes.

    The test suite keeps the boxed assoc-list store this replaced as an
    oracle; properties assert both agree on [find], [query], [count] and
    produce byte-identical Turtle. *)

type triple = Term.t * Term.t * Term.t

type t

val create : unit -> t

val add : t -> triple -> unit
(** Idempotent (set semantics).  Dedup is an integer probe over the
    sorted base plus an open-addressing set over the unsorted tail. *)

val mem : t -> triple -> bool

val size : t -> int

val triples : t -> triple list
(** In insertion order. *)

val iter : t -> (triple -> unit) -> unit

val compact : t -> unit
(** Merge the tail into the sorted base and trim growth slack on the
    columns and the dictionary.  Purely an allocation optimization —
    observable behaviour is unchanged. *)

(** {1 Id level}

    The dictionary ids behind the columns, for renderers that work a term
    at a time rather than a triple at a time ({!Turtle}).  Ids are dense
    from 0 up to [term_count t - 1], in first-seen order. *)

val term_count : t -> int

val term_of_id : t -> int -> Term.t
(** @raise Invalid_argument unless [0 <= id < term_count t]. *)

val subject_id : t -> int -> int
(** [subject_id t i] is the subject id of the [i]-th triple in insertion
    order.  @raise Invalid_argument unless [0 <= i < size t]. *)

val predicate_id : t -> int -> int

val object_id : t -> int -> int

(** {1 Instrumentation} *)

type store_stats = {
  st_triples : int;
  st_terms : int;  (** distinct terms in the dictionary *)
  st_base : int;  (** triples covered by the merged sorted runs *)
  st_tail : int;  (** recent inserts pending a run merge *)
  st_merges : int;  (** run merges performed over the store's life *)
  st_moved : int;
      (** run entries those merges wrote, per key order: the merge work *)
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
    where each position is either a constant term or a variable.  A BGP
    is evaluated at the id level: rows of dictionary ids, decoded only by
    the caller that needs a term. *)

type bgp_term =
  | Const of Term.t
  | Var of string

val bgp_variables : (bgp_term * bgp_term * bgp_term) list -> string list
(** Variables of a pattern, first-occurrence order. *)

type solutions
(** Id rows: a row per solution, a cell per column, each cell a
    dictionary id ({!term_of_id}) or {!unbound_id}. *)

val unbound_id : int
(** [-1]: the cell of a column the row does not bind. *)

val solve : t -> (bgp_term * bgp_term * bgp_term) list -> solutions
(** The solutions of the conjunctive pattern, one column per variable of
    {!bgp_variables}, in solution order: patterns are joined left to
    right, each probing the store once per row so far and extending it
    with its matches in insertion order.  Duplicates are kept.  Counts
    one [rdf.store.probes] per (row, pattern) probe, like {!find}. *)

val project : solutions -> string list -> int list -> int -> solutions
(** [project sol columns order limit]: the rows of [sol] listed in
    [order] (row numbers), projected onto [columns] — a name [sol] does
    not bind gives an unbound column — with duplicate rows dropped (the
    first occurrence kept) and at most [limit] rows.  Rows are compared
    on their ids, which is exact: distinct ids are distinct terms, and
    distinct terms have distinct N-Triples encodings. *)

val solution_vars : solutions -> string list

val solution_count : solutions -> int

val binding : solutions -> int -> int -> int
(** [binding sol row col]: the cell's term id, or {!unbound_id}. *)

val query : t -> (bgp_term * bgp_term * bgp_term) list -> Weblab_relalg.Table.t
(** {!solve}, then {!project} onto every variable: the distinct
    solutions, one column per variable, each cell the N-Triples string
    of its term. *)

val unbound : Weblab_relalg.Value.t
(** The cell value of a variable a row leaves unbound (possible when a
    caller projects onto a variable the BGP does not bind): the empty
    string.  It is distinguishable from every real binding because term
    encodings are never empty ([<iri>], ["lit"], [_:b]). *)
