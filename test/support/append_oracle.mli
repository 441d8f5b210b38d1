(** The fingerprint-based append check: the parity oracle for the
    orchestrator's checkpoint-column check. *)

open Weblab_xml

val arena_fingerprint : Tree.t -> string
(** Every node's kind, name or text, parent, attributes, children and
    both timestamps, with the arena's size and root: two arenas are
    bit-identical when their fingerprints are equal. *)

val run :
  Tree.t ->
  (Tree.t -> unit) ->
  (Tree.node list * Tree.node list, string) result
(** [run doc f] applies [f] to [doc], then compares every node committed
    before the call against its fingerprint: [Ok (new_nodes, promoted)]
    or [Error reason], where [reason] is the text
    {!Weblab_workflow.Orchestrator.step} reports for the failure. *)
