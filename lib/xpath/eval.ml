open Weblab_xml
open Weblab_relalg
module T = Weblab_obs.Telemetry

let c_patterns = T.counter "eval.patterns"
let c_indexed = T.counter "eval.steps.indexed"
let c_scan = T.counter "eval.steps.scan"

type guards = {
  visible : Tree.node -> bool;
  env : (string * Value.t) list;
}

let no_guards = { visible = (fun _ -> true); env = [] }

(* An evaluation front: the surviving (node, environment) pairs after a
   prefix of a pattern's steps, in document-traversal order. *)
type contexts = (Tree.node * (string * Value.t) list) list

let state_guards st = { visible = Doc_state.visible st; env = [] }

let test_matches doc test n =
  Tree.is_element doc n
  &&
  match test with
  | Ast.Any -> true
  | Ast.Name name -> String.equal name (Tree.name doc n)

(* Candidate nodes of an axis step from a context node.  [ctx = no_node]
   stands for the virtual document node (used for the first step of an
   absolute pattern). *)
let axis_nodes doc visible ctx axis =
  let from_document = ctx = Tree.no_node in
  (* Direct sibling-chain walks on the structure-of-arrays links: no
     child-list materialization, document order preserved. *)
  let siblings ~after =
    let p = Tree.parent doc ctx in
    if p = Tree.no_node then []
    else if after then begin
      let rec collect acc k =
        if k = Tree.no_node then List.rev acc
        else collect (k :: acc) (Tree.next_sibling doc k)
      in
      collect [] (Tree.next_sibling doc ctx)
    end
    else begin
      let rec collect acc k =
        if k = ctx then List.rev acc
        else collect (k :: acc) (Tree.next_sibling doc k)
      in
      collect [] (Tree.first_child doc p)
    end
  in
  let raw =
    match axis, from_document with
    | Ast.Child, true -> if Tree.has_root doc then [ Tree.root doc ] else []
    | Ast.Child, false -> Tree.children doc ctx
    | (Ast.Descendant | Ast.Descendant_or_self), true ->
      if Tree.has_root doc then Tree.descendant_or_self doc (Tree.root doc) else []
    | Ast.Descendant, false -> Tree.descendants doc ctx
    | Ast.Descendant_or_self, false -> Tree.descendant_or_self doc ctx
    | Ast.Self, true -> if Tree.has_root doc then [ Tree.root doc ] else []
    | Ast.Self, false -> [ ctx ]
    | (Ast.Parent | Ast.Ancestor | Ast.Ancestor_or_self
      | Ast.Following_sibling | Ast.Preceding_sibling), true -> []
    | Ast.Parent, false ->
      let p = Tree.parent doc ctx in
      if p = Tree.no_node then [] else [ p ]
    | Ast.Ancestor, false -> Tree.ancestors doc ctx
    | Ast.Ancestor_or_self, false -> ctx :: Tree.ancestors doc ctx
    | Ast.Following_sibling, false -> siblings ~after:true
    | Ast.Preceding_sibling, false -> siblings ~after:false
  in
  List.filter visible raw

(* Nodes reached by a relative path (inside a predicate) from [ctx]. *)
let eval_rel_path doc visible ctx rp =
  List.fold_left
    (fun ctxs { Ast.raxis; rtest } ->
      List.concat_map
        (fun c ->
          axis_nodes doc visible c raxis
          |> List.filter (test_matches doc rtest))
        ctxs)
    [ ctx ] rp

(* The possible values of an operand at a context node.  A [Path] operand
   contributes the string-value of each node it reaches (XPath's
   existential semantics over node sets); other operands contribute at
   most one value. *)
let rec operand_values doc visible env ~pos ~last ctx (op : Ast.operand) :
    Value.t list =
  match op with
  | Ast.Attr a -> (
    match Tree.attr doc ctx a with Some v -> [ Value.Str v ] | None -> [])
  | Ast.Lit s -> [ Value.Str s ]
  | Ast.Num n -> [ Value.Int n ]
  | Ast.Var x -> (
    match List.assoc_opt x env with Some v -> [ v ] | None -> [])
  | Ast.Position -> [ Value.Int pos ]
  | Ast.Last -> [ Value.Int last ]
  | Ast.Count rp ->
    [ Value.Int (List.length (eval_rel_path doc visible ctx rp)) ]
  | Ast.Strlen a -> (
    match operand_values doc visible env ~pos ~last ctx a with
    | v :: _ -> [ Value.Int (String.length (Value.to_string v)) ]
    | [] -> [])
  | Ast.Path rp ->
    eval_rel_path doc visible ctx rp
    |> List.map (fun n -> Value.Str (Tree.string_value doc n))
  | Ast.Path_attr (rp, a) ->
    eval_rel_path doc visible ctx rp
    |> List.filter_map (fun n ->
           Option.map (fun v -> Value.Str v) (Tree.attr doc n a))
  | Ast.Skolem (f, args) ->
    (* A Skolem term has a value only when every argument does; the value is
       the canonical ground term f(v1,...,vn), so equal arguments yield the
       same (joinable) identifier — exactly the §5 aggregation device. *)
    let arg_values =
      List.map
        (fun a ->
          match operand_values doc visible env ~pos ~last ctx a with
          | [ v ] -> Some v
          | v :: _ -> Some v
          | [] -> None)
        args
    in
    if List.exists Option.is_none arg_values then []
    else
      [ Value.Str
          (Printf.sprintf "%s(%s)" f
             (String.concat ","
                (List.map (fun v -> Value.to_string (Option.get v)) arg_values)))
      ]

let cmp_values op (a : Value.t) (b : Value.t) =
  match op with
  | Ast.Eq -> Value.equal a b
  | Ast.Neq -> not (Value.equal a b)
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
    let c =
      match Value.as_int a, Value.as_int b with
      | Some x, Some y -> compare x y
      | _ -> String.compare (Value.to_string a) (Value.to_string b)
    in
    match op with
    | Ast.Lt -> c < 0
    | Ast.Le -> c <= 0
    | Ast.Gt -> c > 0
    | Ast.Ge -> c >= 0
    | Ast.Eq | Ast.Neq -> assert false)

(* The supported boolean functions; all use first-value semantics on
   their arguments, as XPath's string() conversion does. *)
let string_fn name a b =
  match name with
  | "contains" ->
    let na = String.length a and nb = String.length b in
    let rec loop i = i + nb <= na && (String.sub a i nb = b || loop (i + 1)) in
    nb = 0 || loop 0
  | "starts-with" ->
    String.length a >= String.length b
    && String.sub a 0 (String.length b) = b
  | "ends-with" ->
    String.length a >= String.length b
    && String.sub a (String.length a - String.length b) (String.length b) = b
  | f -> invalid_arg (Printf.sprintf "Eval: unknown boolean function %s()" f)

let rec eval_bool doc visible env ~pos ~last ctx (p : Ast.pred) : bool =
  match p with
  | Ast.Bind _ ->
    invalid_arg "Eval: variable bindings cannot appear under and/or/not"
  | Ast.Cmp (a, op, b) ->
    let va = operand_values doc visible env ~pos ~last ctx a in
    let vb = operand_values doc visible env ~pos ~last ctx b in
    List.exists (fun x -> List.exists (fun y -> cmp_values op x y) vb) va
  | Ast.Exists_path rp -> eval_rel_path doc visible ctx rp <> []
  | Ast.Exists_attr a -> Tree.attr doc ctx a <> None
  | Ast.Index n -> pos = n
  | Ast.Fn_bool (name, [ a; b ]) -> (
    match
      ( operand_values doc visible env ~pos ~last ctx a,
        operand_values doc visible env ~pos ~last ctx b )
    with
    | va :: _, vb :: _ ->
      string_fn name (Value.to_string va) (Value.to_string vb)
    | _ -> false)
  | Ast.Fn_bool (name, args) ->
    invalid_arg
      (Printf.sprintf "Eval: %s() expects 2 arguments, got %d" name
         (List.length args))
  | Ast.And (a, b) ->
    eval_bool doc visible env ~pos ~last ctx a
    && eval_bool doc visible env ~pos ~last ctx b
  | Ast.Or (a, b) ->
    eval_bool doc visible env ~pos ~last ctx a
    || eval_bool doc visible env ~pos ~last ctx b
  | Ast.Not a -> not (eval_bool doc visible env ~pos ~last ctx a)

(* ----- Indexed candidate generation -----

   A step's candidates (axis ∩ name test ∩ visibility) are served from the
   document index when doing so is guaranteed to produce the same list in
   the same (document) order as the traversal:

   - descendant steps with a name test read the by-label list, restricted
     to the context's pre/post-order interval;
   - a position-insensitive [@a = 'v'] predicate over an indexed attribute
     ([@id], [@s], [@t] — exactly what the §4 rewriting injects) narrows
     the candidates to the by-attribute list before any predicate runs.

   Narrowing by a predicate p_j is sound iff p_1..p_j are all
   position-insensitive: such predicates are pure (node, env) filters, so
   applying p_j's node-only filter first commutes with them, and later
   (possibly positional) predicates see the exact same list. *)

let rec operand_position_sensitive (op : Ast.operand) =
  match op with
  | Ast.Position | Ast.Last -> true
  | Ast.Strlen a -> operand_position_sensitive a
  | Ast.Skolem (_, args) -> List.exists operand_position_sensitive args
  | Ast.Attr _ | Ast.Lit _ | Ast.Num _ | Ast.Var _ | Ast.Count _ | Ast.Path _
  | Ast.Path_attr _ -> false

let rec pred_position_sensitive (p : Ast.pred) =
  match p with
  | Ast.Index _ -> true
  | Ast.Bind (_, src) -> operand_position_sensitive src
  | Ast.Cmp (a, _, b) ->
    operand_position_sensitive a || operand_position_sensitive b
  | Ast.Fn_bool (_, args) -> List.exists operand_position_sensitive args
  | Ast.And (a, b) | Ast.Or (a, b) ->
    pred_position_sensitive a || pred_position_sensitive b
  | Ast.Not a -> pred_position_sensitive a
  | Ast.Exists_path _ | Ast.Exists_attr _ -> false

(* The first usable narrowing predicate: an env-independent equality
   [@a = 'v'] (or the symmetric form) on an indexed attribute, preceded
   only by position-insensitive predicates.  Literal (string) comparisands
   only: [@t = 5] uses numeric loose equality, which the exact-string
   attribute index must not answer. *)
let narrowing_attr (preds : Ast.pred list) =
  let rec scan = function
    | [] -> None
    | p :: rest ->
      if pred_position_sensitive p then None
      else (
        match p with
        | Ast.Cmp (Ast.Attr a, Ast.Eq, Ast.Lit v)
        | Ast.Cmp (Ast.Lit v, Ast.Eq, Ast.Attr a)
          when Index.attr_indexed a -> Some (a, v)
        | _ -> scan rest)
  in
  scan preds

(* [Some candidates] when the index can serve the step for this context —
   the same nodes, in document order, as the traversal path — or [None]
   to fall back (including when the by-label list is larger than the
   subtree it would be filtered against). *)
let fast_candidates doc idx visible ctx (step : Ast.step) =
  let from_document = ctx = Tree.no_node in
  let label_ok n = test_matches doc step.Ast.test n in
  let narrowing = narrowing_attr step.Ast.preds in
  let axis_ok =
    match step.Ast.axis, from_document with
    | (Ast.Descendant | Ast.Descendant_or_self), true -> Some (fun _ -> true)
    | Ast.Descendant, false -> Some (Index.strictly_below idx ~ancestor:ctx)
    | Ast.Descendant_or_self, false -> Some (Index.below_or_self idx ~ancestor:ctx)
    | Ast.Child, _ when narrowing <> None ->
      (* Only worth consulting the attribute index for: without a
         narrowing attribute the child list itself is the cheapest plan. *)
      if from_document then
        Some (fun n -> Tree.has_root doc && Tree.root doc = n)
      else Some (fun n -> Tree.parent doc n = ctx)
    | _ -> None
  in
  match axis_ok with
  | None -> None
  | Some axis_ok -> (
    match narrowing with
    | Some (a, v) ->
      Some
        (Index.nodes_with_attr idx a v
        |> List.filter (fun n -> label_ok n && axis_ok n && visible n))
    | None -> (
      match step.Ast.test with
      | Ast.Name l ->
        if
          (not from_document)
          && Index.label_count idx l > Index.subtree_size idx ctx
        then None (* walking the subtree is cheaper than filtering the label list *)
        else
          Some
            (Index.nodes_with_label idx l
            |> List.filter (fun n -> axis_ok n && visible n))
      | Ast.Any ->
        if from_document then Some (List.filter visible (Index.elements idx))
        else None))

(* Apply one predicate to a candidate list, XPath-style: positions are
   1-based indices into the current list, recomputed after each predicate. *)
let apply_pred doc visible candidates (p : Ast.pred) =
  let last = List.length candidates in
  match p with
  | Ast.Bind (x, src) ->
    (* Multi-valued sources (e.g. Member/@ref) yield one embedding per
       value — each corresponds to a different mapping of the predicate's
       pattern nodes (Definition 6). *)
    List.concat_map
      (fun (i, (n, env)) ->
        operand_values doc visible env ~pos:i ~last n src
        |> List.map (fun v -> (n, (x, v) :: env)))
      (List.mapi (fun i c -> (i + 1, c)) candidates)
  | _ ->
    List.filter_map
      (fun (i, (n, env)) ->
        if eval_bool doc visible env ~pos:i ~last n p then Some (n, env)
        else None)
      (List.mapi (fun i c -> (i + 1, c)) candidates)

let apply_step ?keep doc index visible contexts (step : Ast.step) =
  List.concat_map
    (fun (ctx, env) ->
      let fast =
        match index with
        | Some idx -> fast_candidates doc idx visible ctx step
        | None -> None
      in
      let candidates =
        match fast with
        | Some candidates ->
          T.incr c_indexed;
          candidates
        | None ->
          T.incr c_scan;
          axis_nodes doc visible ctx step.Ast.axis
          |> List.filter (test_matches doc step.Ast.test)
      in
      let candidates =
        match keep with
        | None -> candidates
        | Some f -> List.filter f candidates
      in
      let candidates = List.map (fun n -> (n, env)) candidates in
      List.fold_left (apply_pred doc visible) candidates step.Ast.preds)
    contexts

(* Build the result table from the surviving (final node, environment)
   front.  Shared between [eval_with] and the prefix API below so the
   fused compiler's tables are bit-identical — rows and order — to
   rule-at-a-time evaluation of the same pattern. *)
let table_of_front ~require_uri doc (pattern : Ast.pattern) finals =
  (* An explicit [$r := @id] is the implicit result binding of Definition 4
     condition (3) spelled out (the pattern φ2 of Example 3), so the "r"
     column is never duplicated; "node" is likewise reserved. *)
  let vars =
    List.filter (fun v -> v <> "r" && v <> "node") (Ast.variables pattern)
  in
  let table = Table.create (("node" :: "r" :: vars)) in
  List.iter
    (fun (n, env) ->
      let uri = Tree.uri doc n in
      match uri, require_uri with
      | None, true -> ()   (* condition (3) of Definition 4 *)
      | _ ->
        let r =
          match uri with
          | Some u -> Value.Str u
          | None -> Value.Str (Printf.sprintf "#%d" n)
        in
        let row =
          Array.of_list
            (Value.Node n :: r
            :: List.map
                 (fun x ->
                   match List.assoc_opt x env with
                   | Some v -> v
                   | None ->
                     (* Bindings are top-level step predicates, so a surviving
                        candidate always carries all of them. *)
                     assert false)
                 vars)
        in
        Table.add_row table row)
    finals;
  Table.distinct table

let eval_with ~require_uri ~guards ~index doc (pattern : Ast.pattern) =
  T.incr c_patterns;
  let finals =
    List.fold_left
      (apply_step doc index guards.visible)
      [ (Tree.no_node, guards.env) ]
      pattern
  in
  table_of_front ~require_uri doc pattern finals

(* ----- Shared-prefix evaluation -----

   The fused rule-set compiler (lib/compile) evaluates the patterns of a
   whole rulebook against one document state and shares the work of
   common step prefixes.  These hooks expose the evaluator's
   intermediate state — the (node, environment) front after a prefix of
   steps — so a front can be extended by one step at a time and branched
   into several continuations without re-running the shared steps.
   Folding [prefix_step] over a pattern's steps from [prefix_start] and
   finishing with [prefix_table] goes through exactly the same
   [apply_step] / [table_of_front] code as [eval]. *)

let c_shared_tables = T.counter "eval.patterns.fused"

let prefix_start (guards : guards) : contexts = [ (Tree.no_node, guards.env) ]

let prefix_step ?index ?keep ~guards doc (ctxs : contexts) (step : Ast.step)
    : contexts =
  let index =
    match index with
    | Some idx when Index.valid_for idx doc -> Some idx
    | Some _ | None -> Some (Index.for_tree doc)
  in
  apply_step ?keep doc index guards.visible ctxs step

let prefix_table ?(require_uri = true) doc (pattern : Ast.pattern)
    (finals : contexts) =
  T.incr c_shared_tables;
  table_of_front ~require_uri doc pattern finals

(* The default mode: serve candidates from the cached per-document index
   (see {!Index.for_tree}); a caller that already holds a valid index
   passes it to skip the cache lookup.  A stale index is never used — a
   snapshot of a smaller arena would silently miss appended nodes. *)
let eval ?(require_uri = true) ?(guards = no_guards) ?index doc
    (pattern : Ast.pattern) =
  let index =
    match index with
    | Some idx when Index.valid_for idx doc -> Some idx
    | Some _ | None -> Some (Index.for_tree doc)
  in
  eval_with ~require_uri ~guards ~index doc pattern

(* The reference evaluator the indexed path is property-tested against:
   pure tree traversal, no index consulted. *)
let eval_unindexed ?(require_uri = true) ?(guards = no_guards) doc pattern =
  eval_with ~require_uri ~guards ~index:None doc pattern

let eval_state ?require_uri st pattern =
  eval ?require_uri ~guards:(state_guards st) (Doc_state.doc st) pattern

(* ----- Delta restriction -----

   When a call appends a fragment to the arena, the only {e new}
   embeddings of a pattern are those whose final node lies in the
   fragment.  For patterns built from downward axes only (child,
   descendant, descendant-or-self, self), every node of such an
   embedding's step chain is an ancestor-or-self of the final node — so
   pruning every step's candidates to the ancestor-or-self closure of the
   fragment (the [keep] hook of [prefix_step]) keeps exactly those
   embeddings, while looking at O(delta × depth) nodes instead of the
   whole document.

   The pruning touches {e candidates} only; predicates still read the
   full document (relative paths, counts, string-values), so their truth
   values are untouched.  Pruning commutes with predicate filtering only
   when no predicate is position-sensitive: positions are 1-based indices
   into the candidate list, which the pruning shortens.  Patterns with an
   upward or sibling axis (the final node no longer dominates the chain)
   or a position-sensitive predicate are not delta-localizable and must
   be evaluated in full. *)

let delta_localizable (pattern : Ast.pattern) =
  List.for_all
    (fun (s : Ast.step) ->
      (match s.Ast.axis with
       | Ast.Child | Ast.Descendant | Ast.Descendant_or_self | Ast.Self ->
         true
       | Ast.Parent | Ast.Ancestor | Ast.Ancestor_or_self
       | Ast.Following_sibling | Ast.Preceding_sibling -> false)
      && not (List.exists pred_position_sensitive s.Ast.preds))
    pattern

(* Append stability: only the context node's attributes are read, and
   committed attributes never change; Exists_path, Count and Path
   string-values can flip when descendants are appended. *)
let rec operand_append_stable (op : Ast.operand) =
  match op with
  | Ast.Attr _ | Ast.Lit _ | Ast.Num _ | Ast.Var _ -> true
  | Ast.Strlen a -> operand_append_stable a
  | Ast.Skolem (_, args) -> List.for_all operand_append_stable args
  | Ast.Position | Ast.Last | Ast.Count _ | Ast.Path _ | Ast.Path_attr _ ->
    false

let rec pred_append_stable (p : Ast.pred) =
  match p with
  | Ast.Bind (_, src) -> operand_append_stable src
  | Ast.Cmp (a, _, b) -> operand_append_stable a && operand_append_stable b
  | Ast.Exists_attr _ -> true
  | Ast.Fn_bool (_, args) -> List.for_all operand_append_stable args
  | Ast.And (a, b) | Ast.Or (a, b) ->
    pred_append_stable a && pred_append_stable b
  | Ast.Not a -> pred_append_stable a
  | Ast.Exists_path _ | Ast.Index _ -> false

let append_stable (pattern : Ast.pattern) =
  delta_localizable pattern
  && List.for_all
       (fun (s : Ast.step) -> List.for_all pred_append_stable s.Ast.preds)
       pattern

let matching_nodes ?(guards = no_guards) doc pattern =
  let t = eval ~require_uri:false ~guards doc pattern in
  Table.rows t
  |> List.filter_map (fun row ->
         match Table.get t row "node" with
         | Value.Node n -> Some n
         | Value.Str _ | Value.Int _ -> None)
  |> List.sort_uniq compare
