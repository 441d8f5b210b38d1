(* One fused evaluation pass: materialize a set of expression tables
   against one document state, evaluating every needed trie node exactly
   once.

   Nodes are evaluated in ascending id order; a parent's id is always
   smaller (Trie invariant), so each node extends an already-computed
   parent front.  Each front and each table goes through the evaluator's
   own step/table code ({!Eval.prefix_step} / {!Eval.prefix_table}), so
   a materialized table is bit-identical to [Eval.eval] of the same
   pattern under the same guards and index — the property the
   strategy-agreement tests pin down. *)

open Weblab_xpath
open Weblab_relalg
module T = Weblab_obs.Telemetry

let c_steps = T.counter "fused.pass.steps"
let c_steps_shared = T.counter "fused.pass.steps.shared"
let c_tables = T.counter "fused.pass.tables"

type t = { tables : Table.t option array (* by expr id *) }

let run (plan : Plan.t) ~(exprs : int array) ?index ?keep ~guards doc =
  let tables = Array.make (Array.length plan.Plan.p_exprs) None in
  if exprs <> [||] then begin
    (* The union of the expressions' trie chains.  [keep] prunes a node
       only when no expression that is not delta-localizable passes
       through it ([unpruned]). *)
    let nodes = Trie.size plan.Plan.p_trie in
    let needed = Array.make nodes false and unpruned = Array.make nodes false in
    let demanded = ref 0 in
    Array.iter
      (fun e ->
        let ex = Plan.expr plan e in
        let local = keep = None || Eval.delta_localizable ex.Plan.e_pattern in
        demanded := !demanded + List.length ex.Plan.e_path;
        List.iter
          (fun nid ->
            needed.(nid) <- true;
            if not local then unpruned.(nid) <- true)
          ex.Plan.e_path)
      exprs;
    (* Ascending ids: parents before children. *)
    let fronts = Array.make nodes [] in
    let steps = ref 0 in
    Array.iteri
      (fun nid needed ->
        if needed then begin
          incr steps;
          let n = Trie.get plan.Plan.p_trie nid in
          let parent_front =
            if n.Trie.parent = Trie.root then Eval.prefix_start guards
            else fronts.(n.Trie.parent)
          in
          let keep = if unpruned.(nid) then None else keep in
          fronts.(nid) <-
            Eval.prefix_step ?index ?keep ~guards doc parent_front n.Trie.step
        end)
      needed;
    T.add c_steps !steps;
    T.add c_steps_shared (!demanded - !steps);
    Array.iter
      (fun e ->
        let ex = Plan.expr plan e in
        T.incr c_tables;
        tables.(e) <-
          Some (Eval.prefix_table doc ex.Plan.e_pattern fronts.(ex.Plan.e_leaf)))
      exprs
  end;
  { tables }

let table t ~expr =
  match t.tables.(expr) with
  | Some tbl -> tbl
  | None -> invalid_arg "Pass.table: expression not materialized by this pass"
