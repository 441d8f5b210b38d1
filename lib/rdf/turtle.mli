(** Turtle and N-Triples serialization, plus an N-Triples reader for
    round-trips — the exchange surface the paper's Sesame store exposes
    for PROV graphs. *)

val abbreviate : (string * string) list -> string -> string option
(** [abbreviate prefixes iri] is the qname when some prefix applies and
    the local part is a plain name. *)

val term_to_turtle : (string * string) list -> Term.t -> string

val to_sink : (string * string) list -> Triple_store.t -> Sink.t -> unit
(** [to_sink prefixes store out] writes the Turtle of [store] into
    [out], as it is produced: @prefix declarations for [prefixes], then
    the triples grouped by subject and predicate — subjects in
    first-seen order, each subject's predicates in first-seen order,
    each predicate's objects in insertion order.  Rendered from the
    store's id columns in one grouping pass; each distinct term's text
    is built once.  Total; [out] is not flushed. *)

val to_turtle : ?prefixes:(string * string) list -> Triple_store.t -> string
(** {!to_sink} (with {!Prov_vocab.prefixes} by default) folded into one
    string. *)

val to_ntriples : Triple_store.t -> string
(** One triple per line, in insertion order. *)

exception Parse_error of string

val parse_ntriples : string -> Triple_store.t
(** Minimal N-Triples reader: IRIs, blank nodes, literals with optional
    datatype; [#] comment lines ignored.
    @raise Parse_error on malformed input. *)
