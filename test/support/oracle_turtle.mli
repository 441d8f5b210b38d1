(** The probe-based Turtle and N-Triples renderer over {!Oracle_store},
    kept as the byte-identity oracle for {!Weblab_rdf.Turtle}: subjects
    by a scan, then one subject probe and one (subject, predicate) probe
    per group, with every term re-rendered at each occurrence. *)

val to_turtle : ?prefixes:(string * string) list -> Oracle_store.t -> string

val to_ntriples : Oracle_store.t -> string
