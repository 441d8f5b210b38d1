(** The Online strategy backend — Definition 9 applied literally, during
    the execution.  Doubles as the reference implementation the other
    backends are property-tested against. *)

include Strategy_sig.STRATEGY_BACKEND
