(* The rule-set compiler: rulebook → flat fused plan.

   Compilation has three phases:

   1. {b Trie construction / CSE.}  Every fusable rule's source and
      target pattern is interned in one shared {!Trie}; identical
      patterns collapse onto the same leaf, so each {e distinct} pattern
      becomes one {!expr} and each distinct (prefix, step) pair one trie
      node.  A pass over a document state evaluates every needed trie
      node once, however many rules reference it.

   2. {b Join ordering.}  A fused rule is a hash join of its source and
      target expression tables on their shared variables.  The build
      (hashed) side is the one with the smaller index-derived
      cardinality estimate — for each side, the minimum over its steps
      of the index's candidate count for the step's name test.
      Estimates only pick the cheaper of two equivalent plans; they
      never affect the result.

   3. {b Lowering.}  The result is flat data — integer-indexed arrays of
      expressions and per-service rule plans, no closures — so executing
      a call is: run the two passes (source side on the before state,
      target side on the after state), then look up tables by expr id
      and join.  Execution lives in {!Pass} and the Fused strategy
      backend; this module is the static half.

   Rules the fused path cannot reproduce exactly — Skolem rules (their
   identifier is computed per joined row) and rules with free target
   variables (the join would need a column the target evaluation cannot
   produce) — are lowered to [Exact] plans: the backend runs the
   reference rule-at-a-time computation for them.  The caller decides
   the classification (it owns the rule representation); the compiler
   records the reason for the explain dump. *)

open Weblab_xml
open Weblab_xpath

type crule = {
  cr_name : string;
  cr_source : Ast.pattern;
  cr_target : Ast.pattern;
  cr_exact : string option;
      (* [Some reason]: evaluate rule-at-a-time, exactly *)
}

type expr = {
  e_id : int;  (* dense, in first-reference order *)
  e_leaf : int;  (* trie leaf interning the pattern *)
  e_pattern : Ast.pattern;
  e_path : int list;  (* trie chain, root to leaf *)
  mutable e_refs : int;  (* (rule, side) references — the CSE degree *)
  e_estimate : int;  (* index-derived cardinality estimate *)
}

type build_side = Build_source | Build_target

type rule_plan =
  | Exact of { x_name : string; x_reason : string }
  | Fused of {
      f_name : string;
      f_src : int;  (* expr id *)
      f_tgt : int;
      f_keys : string list;  (* shared join variables, sorted *)
      f_build : build_side;
    }

type service_plan = {
  sp_service : string;
  sp_rules : rule_plan array;  (* in rulebook order *)
  sp_src_exprs : int array;  (* expr ids the source pass materializes *)
  sp_tgt_exprs : int array;  (* ditto, target pass *)
}

type t = {
  p_trie : Trie.t;
  p_exprs : expr array;  (* by [e_id] *)
  p_services : service_plan array;  (* in rulebook order *)
}

(* Candidate count for one step: the elements carrying the step's name
   test, all elements for [*] — what the index's by-label lists would
   serve, counted in one walk instead of building an index.  The
   estimate for a pattern is the minimum over its steps — every
   embedding must pass through each step's candidate set. *)
let label_estimate doc =
  let counts = Hashtbl.create 32 and elements = ref 0 in
  let rec visit n =
    if Tree.is_element doc n then begin
      incr elements;
      let l = Tree.name doc n in
      match Hashtbl.find_opt counts l with
      | Some c -> incr c
      | None -> Hashtbl.add counts l (ref 1)
    end;
    let child = ref (Tree.first_child doc n) in
    while !child <> Tree.no_node do
      visit !child;
      child := Tree.next_sibling doc !child
    done
  in
  if Tree.has_root doc then visit (Tree.root doc);
  let step_estimate (s : Ast.step) =
    match s.Ast.test with
    | Ast.Name l -> (match Hashtbl.find_opt counts l with Some c -> !c | None -> 0)
    | Ast.Any -> !elements
  in
  fun (pattern : Ast.pattern) ->
    match pattern with
    | [] -> 0
    | s :: rest ->
      List.fold_left (fun e s -> min e (step_estimate s)) (step_estimate s)
        rest

(* Variables a pattern's result table exposes besides "r"/"node" — must
   mirror the projections of the rule application (Definition 8) so the
   computed join keys are the columns the tables actually share. *)
let source_vars p = Ast.variables p

let target_vars p =
  List.sort_uniq String.compare (Ast.variables p @ Ast.free_variables p)
  |> List.filter (fun v -> v <> "r" && v <> "node")

let compile ?(estimate = fun (_ : Ast.pattern) -> 0) (rb : (string * crule list) list) =
  let trie = Trie.create () in
  let exprs = ref [] and n_exprs = ref 0 in
  let by_leaf = Hashtbl.create 32 in
  let intern pattern =
    let chain = Trie.insert trie pattern in
    let leaf = List.nth chain (List.length chain - 1) in
    let e =
      match Hashtbl.find_opt by_leaf leaf with
      | Some e -> e
      | None ->
        let e =
          { e_id = !n_exprs; e_leaf = leaf; e_pattern = pattern;
            e_path = chain; e_refs = 0; e_estimate = estimate pattern }
        in
        incr n_exprs;
        exprs := e :: !exprs;
        Hashtbl.add by_leaf leaf e;
        e
    in
    e.e_refs <- e.e_refs + 1;
    e
  in
  let services =
    List.map
      (fun (service, rules) ->
        let src_ids = ref [] and tgt_ids = ref [] in
        let seen_src = Hashtbl.create 8 and seen_tgt = Hashtbl.create 8 in
        let plans =
          List.map
            (fun r ->
              match r.cr_exact with
              | Some reason -> Exact { x_name = r.cr_name; x_reason = reason }
              | None ->
                let src = intern r.cr_source in
                let tgt = intern r.cr_target in
                if not (Hashtbl.mem seen_src src.e_id) then begin
                  Hashtbl.add seen_src src.e_id ();
                  src_ids := src.e_id :: !src_ids
                end;
                if not (Hashtbl.mem seen_tgt tgt.e_id) then begin
                  Hashtbl.add seen_tgt tgt.e_id ();
                  tgt_ids := tgt.e_id :: !tgt_ids
                end;
                let svars = source_vars r.cr_source in
                let tvars = target_vars r.cr_target in
                let keys =
                  List.filter (fun v -> List.mem v tvars) svars
                  |> List.sort_uniq String.compare
                in
                let build =
                  if tgt.e_estimate <= src.e_estimate then Build_target
                  else Build_source
                in
                Fused
                  { f_name = r.cr_name; f_src = src.e_id; f_tgt = tgt.e_id;
                    f_keys = keys; f_build = build })
            rules
        in
        { sp_service = service;
          sp_rules = Array.of_list plans;
          sp_src_exprs = Array.of_list (List.rev !src_ids);
          sp_tgt_exprs = Array.of_list (List.rev !tgt_ids) })
      rb
  in
  let exprs =
    let a = Array.of_list (List.rev !exprs) in
    Array.sort (fun a b -> compare a.e_id b.e_id) a;
    a
  in
  { p_trie = trie; p_exprs = exprs; p_services = Array.of_list services }

let expr t id = t.p_exprs.(id)

(* ----- Aggregate statistics (the explain header and obs gauges) ----- *)

type stats = {
  s_rules : int;
  s_fused : int;
  s_exact : int;
  s_pattern_refs : int;  (* fused pattern occurrences (2 per fused rule) *)
  s_distinct_patterns : int;
  s_trie_nodes : int;
  s_total_steps : int;  (* step occurrences before sharing *)
  s_shared_steps : int;  (* evaluations removed per pass by the trie *)
}

let stats t =
  let rules = ref 0 and fused = ref 0 in
  Array.iter
    (fun sp ->
      Array.iter
        (fun rp ->
          incr rules;
          match rp with Fused _ -> incr fused | Exact _ -> ())
        sp.sp_rules)
    t.p_services;
  {
    s_rules = !rules;
    s_fused = !fused;
    s_exact = !rules - !fused;
    s_pattern_refs = Array.fold_left (fun a e -> a + e.e_refs) 0 t.p_exprs;
    s_distinct_patterns = Array.length t.p_exprs;
    s_trie_nodes = Trie.size t.p_trie;
    s_total_steps = Trie.total_refs t.p_trie;
    s_shared_steps = Trie.shared_steps t.p_trie;
  }
