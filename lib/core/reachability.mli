(** Materialized reachability over frozen provenance graphs — the
    "efficient provenance storage and querying methods" §8 defers to
    future work.

    The transitive closure is computed once, as bitsets over a dense node
    numbering; [depends_on] is then a bit test and closure enumeration a
    linear scan.  Building is O(nodes × edges / word) — worth it as soon
    as a handful of queries hit the same graph, the Request Manager's
    read-mostly situation (Figure 5).  The graph must be a DAG
    (Definition 3 guarantees it). *)

type t

val build : Prov_graph.t -> t

val size : t -> int
(** Number of indexed nodes. *)

val depends_on : t -> on:string -> string -> bool
(** [depends_on t ~on:a b]: does [b] transitively depend on [a]?
    [false] when either URI is unknown to the graph. *)

val ancestors : t -> string -> string list
(** Everything the resource transitively depends on, sorted — agrees with
    {!Query.depends_on_transitive} (tested). *)

val descendants : t -> string -> string list
(** Everything that transitively depends on the resource, sorted. *)
