(** A SPARQL subset — PREFIX declarations, SELECT/ASK over one basic graph
    pattern, FILTER constraints, ORDER BY and LIMIT — sufficient to query
    generated provenance graphs the way the Figure 5 Request Manager
    queries its SPARQL endpoint.

    {v
    query    ::= prefix* (select | ask)
    select   ::= SELECT [DISTINCT] (STAR | var+) WHERE group
                 [ORDER BY [ASC|DESC] var] [LIMIT n]
    ask      ::= ASK [WHERE] group
    group    ::= { (triple | FILTER(operand CMP operand))* }
    term     ::= <iri> | prefix:local | ?var | "literal" | a
    v}

    The {!Prov_vocab.prefixes} (prov, rdf, rdfs, xsd, wl) are
    predeclared.  FILTER and ORDER BY compare lexical forms, numerically
    when both sides parse as integers.

    Evaluation contract:
    - The BGP is joined left to right over the store's dictionary ids
      ({!Triple_store.solve}); FILTER and ORDER BY decode only the terms
      they compare.
    - SELECT results are always distinct: a solution equal to an earlier
      one on the projected variables is dropped.  [DISTINCT] therefore
      changes nothing — it is parsed, and evaluation ignores the flag.
    - Rows come in solution order: the order in which the BGP's matches
      are found (each pattern's matches in store insertion order), then
      filtered, then stably sorted by ORDER BY ([DESC] reverses the
      ascending sort), de-duplicated keeping the first occurrence, and
      cut at LIMIT.
    - An ASK query has no rows: {!select} and {!run} raise {!Error} on
      one; {!run_result} and {!ask} answer it. *)

exception Error of string

type operand =
  | O_var of string
  | O_lit of string
  | O_num of int

type filter = operand * string * operand
(** lhs, comparison operator, rhs. *)

type form =
  | Select of string list option * bool
      (** projected variables ([None] for all), DISTINCT flag *)
  | Ask

type order = { by : string; descending : bool }

type query = {
  form : form;
  where :
    (Triple_store.bgp_term * Triple_store.bgp_term * Triple_store.bgp_term) list;
  filters : filter list;
  order : order option;
  limit : int option;
}

val parse : string -> query
(** @raise Error on malformed queries or unknown prefixes. *)

(** {1 Rows} *)

type rows
(** An evaluated SELECT over a store: distinct rows of term ids, with
    each distinct term's N-Triples text built once, on first use.  Rows
    read the store they were evaluated over: read them under the same
    lock as the store ({!Triple_store}). *)

val select : Triple_store.t -> string -> rows
(** Parse and evaluate a SELECT query.
    @raise Error on malformed queries, unknown prefixes, or an ASK
    query. *)

val columns : rows -> string list
(** The projected variables, in SELECT order ([*]: the BGP's variables
    in first-occurrence order). *)

val row_count : rows -> int

val cell : rows -> int -> int -> string
(** [cell rows r c]: the N-Triples text of row [r]'s binding in column
    [c], or [""] for a variable the row does not bind. *)

(** {1 Tables} *)

type result =
  | Solutions of Weblab_relalg.Table.t
  | Boolean of bool

val run_query : Triple_store.t -> query -> result

val run_result : Triple_store.t -> string -> result
(** Parse and evaluate. *)

val run : Triple_store.t -> string -> Weblab_relalg.Table.t
(** SELECT queries only: {!select} as a table (one column per projected
    variable, each cell {!cell}).
    @raise Error on an ASK query. *)

val ask : Triple_store.t -> string -> bool
(** ASK queries only. @raise Error on a SELECT query. *)
