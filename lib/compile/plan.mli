(** The rule-set compiler: rulebook → flat fused plan.

    Interns every fusable rule's source and target pattern in one shared
    {!Trie} (common-subexpression elimination: identical patterns
    collapse onto one {!expr}, shared prefixes onto shared trie nodes),
    picks each rule's hash-join build side from index-derived
    cardinality estimates, and lowers the result to integer-indexed
    arrays — no closures — that {!Pass} and the Fused strategy backend
    execute in one pass per committed call.

    The compiler is representation-agnostic: callers hand it plain
    {!crule} records and decide which rules need the [Exact]
    rule-at-a-time fallback (Skolem rules, free target variables); the
    compiler records the reason for the explain dump. *)

open Weblab_xml
open Weblab_xpath

type crule = {
  cr_name : string;
  cr_source : Ast.pattern;
  cr_target : Ast.pattern;
  cr_exact : string option;
      (** [Some reason]: lower to an [Exact] plan — the backend runs the
          reference rule-at-a-time computation for this rule. *)
}

type expr = {
  e_id : int;  (** dense, in first-reference order *)
  e_leaf : int;  (** trie leaf interning the pattern *)
  e_pattern : Ast.pattern;
  e_path : int list;  (** trie chain, root to leaf *)
  mutable e_refs : int;  (** (rule, side) references — the CSE degree *)
  e_estimate : int;  (** index-derived cardinality estimate *)
}

type build_side = Build_source | Build_target

type rule_plan =
  | Exact of { x_name : string; x_reason : string }
  | Fused of {
      f_name : string;
      f_src : int;  (** expr id of the source pattern *)
      f_tgt : int;  (** expr id of the target pattern *)
      f_keys : string list;  (** shared join variables, sorted *)
      f_build : build_side;
          (** Which table the hash join hashes — the smaller estimated
              side; the other side probes.  Never affects the result. *)
    }

type service_plan = {
  sp_service : string;
  sp_rules : rule_plan array;  (** in rulebook order *)
  sp_src_exprs : int array;
      (** expr ids the service's source pass materializes, in
          first-reference order *)
  sp_tgt_exprs : int array;  (** ditto for the target pass *)
}

type t = {
  p_trie : Trie.t;
  p_exprs : expr array;  (** indexed by [e_id] *)
  p_services : service_plan array;  (** in rulebook order *)
}

val compile :
  ?estimate:(Ast.pattern -> int) -> (string * crule list) list -> t
(** Compile a rulebook.  [estimate] supplies the cardinality estimate
    recorded on each expression (default: constant 0, which makes every
    join hash its target side); pass {!label_estimate} of the initial
    document for real estimates.  Deterministic:
    the same rulebook and estimates produce the same plan, ids and
    all. *)

val expr : t -> int -> expr

val label_estimate : Tree.t -> Ast.pattern -> int
(** [label_estimate doc] counts [doc]'s elements per label in one walk;
    the estimate of a pattern is the minimum over its steps of the count
    for the step's name test (all elements for [*]) — the size of the
    index's by-label candidate list, without building an index.  Every
    embedding must pass through each step's candidate set. *)

type stats = {
  s_rules : int;
  s_fused : int;
  s_exact : int;
  s_pattern_refs : int;
  s_distinct_patterns : int;
  s_trie_nodes : int;
  s_total_steps : int;
  s_shared_steps : int;
      (** step evaluations removed per pass by prefix sharing *)
}

val stats : t -> stats
