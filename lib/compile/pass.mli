(** One fused evaluation pass over a document state.

    Materializes the tables of a set of plan expressions, evaluating
    every needed trie node exactly once — shared prefixes are the whole
    point.  Tables are bit-identical (rows and order) to
    [Eval.eval] of the same pattern under the same guards and index.

    Telemetry: [fused.pass.steps] counts trie nodes evaluated,
    [fused.pass.steps.shared] the step evaluations saved versus
    rule-at-a-time evaluation of the same expressions, and
    [fused.pass.tables] the tables materialized. *)

open Weblab_xml
open Weblab_xpath
open Weblab_relalg

type t

val run :
  Plan.t ->
  exprs:int array ->
  ?index:Index.t ->
  ?keep:(Tree.node -> bool) ->
  guards:Eval.guards ->
  Tree.t ->
  t
(** Evaluate the given expressions (by id) against [doc] under [guards].
    A valid [index] serves step candidates; without one, or with a stale
    one, every step runs the reference traversal, as in [Eval.eval].
    [keep] prunes step candidates on the trie nodes that only
    [Eval.delta_localizable] expressions reach: every table stays exact
    on the rows whose final node's ancestors-or-self all satisfy [keep],
    and the other rows may be missing. *)

val table : t -> expr:int -> Table.t
(** @raise Invalid_argument if the expression was not in [exprs]. *)
