(** The Fused strategy backend, the one execution-time engine: the
    rulebook is compiled into one shared plan ({!Weblab_compile}) —
    pattern-prefix trie, common-subexpression elimination,
    estimate-ordered hash joins — and each committed call is processed
    in a single fused pass per side, evaluating every distinct pattern
    step once however many rules reference it.  The target pass is
    pruned to the call's appended fragment, and rules whose source
    pattern is append-stable ({!Weblab_xpath.Eval.append_stable}) probe
    a source memo kept across calls instead of re-evaluating the source
    side, so their per-call cost follows the delta, not the document.

    Produces graphs bit-identical (links and serialized Turtle) to the
    Online reference, for any [jobs], including under fault injection —
    property-tested four ways in CI.  Skolem rules and rules with free
    target variables run through the exact rule-at-a-time fallback. *)

open Weblab_xml

include Strategy_sig.STRATEGY_BACKEND

val compile : doc:Tree.t -> Strategy_sig.rulebook -> Weblab_compile.Plan.t
(** The static half: classify rules (Skolem / free target variables go
    exact), intern patterns, pick join sides from an index of [doc]. *)

val explain : doc:Tree.t -> Strategy_sig.rulebook -> string
(** [Weblab_compile.Explain.to_string] of {!compile} — what the CLI's
    [--explain-plan] prints. *)
