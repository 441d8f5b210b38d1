(* The Fused strategy: execution-time like Online, but the whole rule
   set is compiled ({!Weblab_compile}) into one shared plan before the
   workflow starts, and each committed call is processed in a single
   fused pass per side instead of a rule-at-a-time loop.

   At [init] the rulebook's source and target patterns are interned in a
   shared prefix trie with common-subexpression elimination — identical
   patterns become one expression, shared step prefixes shared trie
   nodes — and each rule is lowered to a hash join of its two expression
   tables, the build side chosen by label-count cardinality estimates
   (see {!Weblab_compile.Plan}).

   At [observe] the backend runs two passes over the (frozen, committed)
   arena: the service's source expressions against d_{t-1} and its
   target expressions against d_t, evaluating every distinct pattern
   step once however many rules reference it.  The target pass is
   pruned to the spine of the call's appended nodes, since only rows
   ending in them are generated (DESIGN §4g).  Per rule, the target
   table is restricted to the rows this call generated (created = t —
   Definition 9's ⋉ out(c); promotions keep their original timestamp and
   are never generated), the two tables are hash-joined on their shared
   variables, and the resulting links are emitted sorted and
   deduplicated — the same order {!Mapping.links_of_table} produces, so
   the graph's insertion sequence (and hence the serialized Turtle) is
   bit-identical to the Online reference.

   Fused rules whose source pattern is {!Eval.append_stable} skip the
   source pass and the hash join: their source rows never change once
   created, so they live in a memo keyed by (source expression, join-key
   values), each tagged with its birth time, created(final node).  A
   call at time t links its generated target rows to the memoised rows
   born before t — exactly the d_{t-1} source table.  A call that
   probes the memo first folds in the arena tail since the last such
   call, by one pass pruned to the tail's spine.  URI promotion, the one
   event that changes committed attributes, resets the memo, as does an
   arena smaller than its prefix.  Rolled-back calls are never observed
   and leave the arena as the last commit left it, so discarded nodes
   never enter the memo.  The memo decision is the backend's, not the
   plan's: [--explain-plan] does not show it.

   Rules the fused form cannot reproduce exactly — Skolem rules (the
   synthetic identifier is computed per joined row) and rules with free
   target variables — were lowered to [Exact] plans at compile time; for
   those the per-rule item runs the reference {!Mapping.apply_states}
   computation, exactly as Online does.

   The per-rule loop fans out over the backend's {!Pool}; each item
   yields its rule's application, and the caller applies them in
   rulebook order (deterministic in-order merge), with
   {!Strategy_sig.record_rule_eval} as the telemetry choke point — the
   same discipline as Online. *)

open Weblab_xml
open Weblab_xpath
open Weblab_relalg
open Weblab_workflow
module C_plan = Weblab_compile.Plan
module C_pass = Weblab_compile.Pass
module C_explain = Weblab_compile.Explain

let name = "fused"

module T = Weblab_obs.Telemetry

let c_exact_items = T.counter "fused.items.exact"
let c_join_items = T.counter "fused.items.join"
let c_memo_items = T.counter "fused.items.memo"
let c_memo_resets = T.counter "fused.memo.resets"

(* ----- Compilation ----- *)

(* The classification lives here, not in lib/compile: it needs the rule
   representation and the Skolem detection of the mapping layer. *)
let crule_of rule =
  let target = Rule.target rule in
  let exact =
    if Mapping.is_skolem_rule rule then Some "skolem identifier"
    else if Ast.free_variables target <> [] then Some "free target variable"
    else None
  in
  { C_plan.cr_name = Rule.name rule; cr_source = Rule.source rule;
    cr_target = target; cr_exact = exact }

let compile ~doc (rb : Strategy_sig.rulebook) =
  (* Compile-time estimates only read element-label counts, which the
     orchestrator's prologue (attribute labeling) does not change. *)
  C_plan.compile
    ~estimate:(C_plan.label_estimate doc)
    (List.map (fun (s, rules) -> (s, List.map crule_of rules)) rb)

let explain ~doc (rb : Strategy_sig.rulebook) =
  C_explain.to_string (compile ~doc rb)

(* ----- State ----- *)

(* Memoised source rows of one (source expression, join keys) pair,
   shared by every rule with that pair. *)
type memo = {
  m_expr : int;  (* source expr id *)
  m_keys : string list;  (* join columns, sorted *)
  m_rows : (string, (string * int) list ref) Hashtbl.t;
      (* join-key values → (source "in" URI, birth) *)
}

type state = {
  doc : Tree.t;
  g : Prov_graph.t;
  plan : C_plan.t;
  rules : Rule.t array array;  (* per service slot, rulebook order *)
  services : (string, int) Hashtbl.t;  (* service name → slot *)
  memo_of : memo option array array;  (* per slot and rule *)
  src_exprs : int array array;
      (* per slot: the source exprs no memo serves, for the source pass *)
  memos : memo list;
  memo_exprs : int array;  (* the memos' distinct source exprs *)
  pool : Pool.t;
  mutable index : Index.t option;  (* owned: extended in place *)
  mutable upto : int;  (* arena prefix [0, upto) folded into the memos *)
}

let init ?jobs ~doc (rb : Strategy_sig.rulebook) =
  let services = Hashtbl.create 8 in
  List.iteri
    (fun i (service, _) ->
      if not (Hashtbl.mem services service) then
        Hashtbl.replace services service i)
    rb;
  let rules =
    Array.of_list (List.map (fun (_, rs) -> Array.of_list rs) rb)
  in
  let plan = compile ~doc rb in
  let by_key = Hashtbl.create 8 in
  let memo_for ~expr ~keys =
    match Hashtbl.find_opt by_key (expr, keys) with
    | Some m -> m
    | None ->
      let m = { m_expr = expr; m_keys = keys; m_rows = Hashtbl.create 64 } in
      Hashtbl.add by_key (expr, keys) m;
      m
  in
  let memo_of =
    Array.map
      (fun sp ->
        Array.map
          (function
            | C_plan.Fused { f_src; f_keys; _ }
              when Eval.append_stable (C_plan.expr plan f_src).C_plan.e_pattern
              ->
              Some (memo_for ~expr:f_src ~keys:f_keys)
            | C_plan.Fused _ | C_plan.Exact _ -> None)
          sp.C_plan.sp_rules)
      plan.C_plan.p_services
  in
  let memos = Hashtbl.fold (fun _ m acc -> m :: acc) by_key [] in
  let memo_exprs =
    List.sort_uniq compare (List.map (fun m -> m.m_expr) memos)
  in
  let src_exprs =
    Array.map
      (fun sp ->
        Array.of_list
          (List.filter
             (fun e -> not (List.mem e memo_exprs))
             (Array.to_list sp.C_plan.sp_src_exprs)))
      plan.C_plan.p_services
  in
  let jobs = match jobs with Some j -> j | None -> Pool.configured_jobs () in
  (* Index and memos are built lazily at the first observation: [init]
     runs before the orchestrator's prologue has labeled the initial
     resources, so indexing here would snapshot unlabeled attributes. *)
  { doc; g = Prov_graph.create (); plan; rules; services; memo_of; src_exprs;
    memos; memo_exprs = Array.of_list memo_exprs;
    pool = Pool.create ~jobs (); index = None; upto = 0 }

let current_index st ~promoted =
  let doc = st.doc in
  match st.index with
  | Some idx when Index.extend idx doc ~promoted -> idx
  | Some _ | None ->
    (* First observation, a rollback (generation mismatch), or a key
       band exhausted: rebuild.  Privately owned, the {!Index.for_tree}
       cache is left alone. *)
    let idx = Index.build doc in
    st.index <- Some idx;
    idx

(* ----- Source memo maintenance ----- *)

(* The key [Table.hash_join] would match on: the columns' string forms. *)
let join_key tbl row keys =
  String.concat "\x00"
    (List.map (fun k -> Value.to_string (Table.get tbl row k)) keys)

let reset_memos st =
  T.incr c_memo_resets;
  List.iter (fun m -> Hashtbl.reset m.m_rows) st.memos;
  st.upto <- 0

(* The ancestor-or-self closure of the nodes [lo, size): the only nodes
   a downward chain ending in them can pass through.  It is the tail
   itself plus the tail's older ancestors, which are few and kept in a
   table guarded by their id range — the predicate runs on every
   candidate of every pruned step. *)
let spine_of doc ~lo =
  let older = Hashtbl.create 16 in
  let min_id = ref max_int and max_id = ref min_int in
  let rec up n =
    if n <> Tree.no_node && n < lo && not (Hashtbl.mem older n) then begin
      Hashtbl.add older n ();
      min_id := min !min_id n;
      max_id := max !max_id n;
      up (Tree.parent doc n)
    end
  in
  for n = lo to Tree.size doc - 1 do
    up (Tree.parent doc n)
  done;
  fun n -> n >= lo || (n >= !min_id && n <= !max_id && Hashtbl.mem older n)

(* Fold the arena tail [upto, size) into every memo: one pass over the
   memoised source expressions, pruned to the tail's spine (memoised
   sources are delta-localizable by construction), keeping the rows whose
   final node is in the tail.  After a reset (upto = 0) it is one full,
   unpruned pass instead.  [spine] is the spine of [delta_lo, size),
   reused when the tail is exactly the call's appends. *)
let extend_memos st idx ~delta_lo ~spine =
  let doc = st.doc in
  let size = Tree.size doc in
  if size < st.upto then reset_memos st;
  let lo = st.upto in
  if lo < size && st.memos <> [] then begin
    let keep =
      if lo = 0 then None
      else if lo = delta_lo then Some spine
      else Some (spine_of doc ~lo)
    in
    let pass =
      C_pass.run st.plan ~exprs:st.memo_exprs ~index:idx ?keep
        ~guards:Eval.no_guards doc
    in
    List.iter
      (fun m ->
        let tbl = C_pass.table pass ~expr:m.m_expr in
        List.iter
          (fun row ->
            match Table.get tbl row "node" with
            | Value.Node n when n >= lo ->
              let entry = (Value.to_string (Table.get tbl row "r"),
                           Tree.created doc n) in
              let key = join_key tbl row m.m_keys in
              (match Hashtbl.find_opt m.m_rows key with
               | Some entries -> entries := entry :: !entries
               | None -> Hashtbl.add m.m_rows key (ref [ entry ]))
            | _ -> ())
          (Table.rows tbl))
      st.memos
  end;
  st.upto <- size

(* The links a call at time [t] derives from its generated target rows
   and a memo: one per memoised source row born before t, sorted and
   deduplicated as {!Mapping.links_of_table} does. *)
let probe m tgt ~t =
  List.concat_map
    (fun row ->
      let out = Value.to_string (Table.get tgt row "r") in
      match Hashtbl.find_opt m.m_rows (join_key tgt row m.m_keys) with
      | None -> []
      | Some entries ->
        List.filter_map
          (fun (inp, birth) ->
            if birth < t && not (String.equal inp out) then Some (out, inp)
            else None)
          !entries)
    (Table.rows tgt)
  |> List.sort_uniq compare

(* ----- Per-call execution ----- *)

(* ρ_{r→in} then π over the source pattern's variables — exactly
   {!Mapping.source_table}'s projection, applied to a pass table. *)
let project_source tbl (source : Ast.pattern) =
  Table.project (Table.rename tbl [ ("r", "in") ])
    ("in" :: Ast.variables source)

(* ρ_{r→out} then π — exactly {!Mapping.target_table}'s projection. *)
let project_target tbl (target : Ast.pattern) =
  let vars =
    List.sort_uniq String.compare
      (Ast.variables target @ Ast.free_variables target)
    |> List.filter (fun v -> v <> "r" && v <> "node")
  in
  Table.project (Table.rename tbl [ ("r", "out") ]) ("out" :: vars)

let observe st ~call ~before ~after ~(delta : Orchestrator.delta) =
  let idx = current_index st ~promoted:delta.Orchestrator.promoted in
  if delta.Orchestrator.promoted <> [] then reset_memos st;
  match Hashtbl.find_opt st.services call.Trace.service with
  | None -> ()
  | Some slot ->
    let rules = st.rules.(slot) in
    let sp = st.plan.C_plan.p_services.(slot) in
    if Array.length rules > 0 then begin
      let doc = st.doc in
      let t = call.Trace.time in
      let delta_lo = Tree.size doc - List.length delta.Orchestrator.new_nodes in
      let spine = spine_of doc ~lo:delta_lo in
      (* Only a call that probes a memo brings the memos up to date; the
         tail the others leave is folded in by the next one that does. *)
      if Array.exists Option.is_some st.memo_of.(slot) then
        extend_memos st idx ~delta_lo ~spine;
      (* The two fused passes — the only pattern evaluation of the call.
         Computed before the fan-out: the fronts are shared state, and
         the workers must only read. *)
      let src_pass =
        C_pass.run st.plan ~exprs:st.src_exprs.(slot) ~index:idx
          ~guards:(Eval.state_guards before) doc
      in
      (* Pruned to the spine of the call's appends: only rows ending in
         them are generated. *)
      let tgt_pass =
        C_pass.run st.plan ~exprs:sp.C_plan.sp_tgt_exprs ~index:idx
          ~keep:spine ~guards:(Eval.state_guards after) doc
      in
      let generated u =
        match Tree.find_resource doc u with
        | Some n -> Tree.created doc n = t
        | None -> false
      in
      let apps =
        Pool.map st.pool (Array.length rules) (fun i ->
            T.timed (fun () ->
                let rule = rules.(i) in
                match sp.C_plan.sp_rules.(i) with
                | C_plan.Exact _ ->
                  T.incr c_exact_items;
                  let app = Mapping.apply_states ~index:idx rule before after in
                  Mapping.restrict_to_generated app ~generated
                | C_plan.Fused { f_src; f_tgt; f_build; _ } ->
                  (* Definition 9's generated restriction, applied to
                     target rows before the join: a URI names one node,
                     so filtering on created(node) = t keeps exactly the
                     rows whose [out] the call generated. *)
                  let tgt_rows =
                    let tbl = C_pass.table tgt_pass ~expr:f_tgt in
                    Table.select tbl (fun tb row ->
                        match Table.get tb row "node" with
                        | Value.Node n -> Tree.created doc n = t
                        | Value.Str _ | Value.Int _ -> false)
                  in
                  let links =
                    match st.memo_of.(slot).(i) with
                    | Some m ->
                      T.incr c_memo_items;
                      probe m tgt_rows ~t
                    | None ->
                      T.incr c_join_items;
                      let rs =
                        project_source
                          (C_pass.table src_pass ~expr:f_src)
                          (Rule.source rule)
                      in
                      let rt = project_target tgt_rows (Rule.target rule) in
                      Mapping.links_of_table
                        (match f_build with
                         | C_plan.Build_target -> Table.hash_join rs rt
                         | C_plan.Build_source -> Table.hash_join rt rs)
                  in
                  { Mapping.links; members = [] }))
      in
      Array.iteri
        (fun i tr ->
          let rule_name = Rule.name rules.(i) in
          Strategy_sig.record_rule_eval ~service:call.Trace.service
            ~time:call.Trace.time ~rule_name ~t0:tr.T.t0 ~t1:tr.T.t1
            ~worker:tr.T.worker ~links:tr.T.v.Mapping.links;
          Strategy_sig.add_application st.g rule_name tr.T.v)
        apps
    end

(* The live graph, labeled from the trace so far; the compiled plan,
   memo, index and pool stay hot for the next [observe] — this is what a
   serving session answers queries from between appends. *)
let snapshot st ~doc:_ ~trace =
  List.iter
    (fun e -> Prov_graph.set_label st.g e.Trace.uri e.Trace.call)
    (Trace.entries trace);
  st.g

let finalize st ~doc:_ ~trace =
  Pool.shutdown st.pool;
  List.iter
    (fun e -> Prov_graph.set_label st.g e.Trace.uri e.Trace.call)
    (Trace.entries trace);
  st.g
