(** Parser for the FLWOR fragment the Mapper emits — the inverse of
    {!Xq_print}: the queries the paper prints (Examples 8 and 9) can be
    read back and executed with {!Xq_eval}.

    [parse (Xq_print.to_string q)] is semantically equivalent to [q]
    (same {!Xq_eval} results — tested); structurally, parsed queries
    group all [for] clauses before all [let] clauses, as the printed
    layout does. *)

exception Error of { pos : int; message : string }

val parse : string -> Xq_ast.flwor
(** @raise Error with a byte offset on malformed input. *)
