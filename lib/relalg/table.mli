(** Binding tables and the relational operators of Definition 8.

    A table has a named schema (column names, e.g. ["r"; "x"]) and a set of
    rows.  Pattern results (Definition 7) are tables whose columns are the
    binding variables of the pattern; applying a mapping rule is the
    project–join–rename expression

    {v M(d, d') = π(in,out)( ρ(r→in) R_φS(d)  ⋈  ρ(r→out) R_φT(d') ) v}

    which this module implements with a hash join. *)

type t

(** {1 Construction} *)

val create : string list -> t
(** An empty table with the given column names.
    @raise Invalid_argument on duplicate column names. *)

val add_row : t -> Value.t array -> unit
(** @raise Invalid_argument if the row width differs from the schema. *)

val of_rows : string list -> Value.t array list -> t

(** {1 Schema and contents} *)

val columns : t -> string list

val cardinality : t -> int

val rows : t -> Value.t array list
(** In insertion order. *)

val get : t -> Value.t array -> string -> Value.t
(** [get t row col] extracts a named field from a row of [t].
    @raise Not_found if the column does not exist. *)

(** {1 Relational operators} *)

val project : t -> string list -> t
(** π: keep the named columns (in the given order); duplicate rows are
    eliminated (set semantics, as in Definition 8). *)

val rename : t -> (string * string) list -> t
(** ρ: rename columns, [(old_name, new_name)] pairs. *)

val select : t -> (t -> Value.t array -> bool) -> t
(** σ: keep the rows satisfying the predicate (which receives the table so
    it can use {!get}). *)

val natural_join : t -> t -> t
(** ⋈ on all shared column names; a cross product when none are shared.
    An alias for {!hash_join}. *)

val hash_join : t -> t -> t
(** ⋈ as a hash equi-join on the shared columns: the right side is hashed
    once, each left row probes it — O(|a| + |b| + output) instead of the
    O(|a|·|b|) of a nested-loop join.  Output schema is [a]'s columns
    followed by [b]'s own; rows come in [a]-major order.  Produces the
    exact same row sequence as the textbook nested-loop join, which the
    tests keep as its oracle (property-tested). *)

val union : t -> t -> t
(** Set union; both tables must have the same schema.
    @raise Invalid_argument otherwise. *)

val distinct : t -> t

val equal : t -> t -> bool
(** Set equality of rows, after checking the schemas match (column order
    insensitive). *)

(** {1 Display} *)

val pp : Format.formatter -> t -> unit
(** An ASCII rendering in the style of the paper's figures. *)

val to_string : t -> string
