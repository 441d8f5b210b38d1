(** The fingerprint-based append check: the parity oracle for the
    orchestrator's checkpoint-column check. *)

open Weblab_xml

val run :
  Tree.t ->
  (Tree.t -> unit) ->
  (Tree.node list * Tree.node list, string) result
(** [run doc f] applies [f] to [doc], then compares every node committed
    before the call against its fingerprint: [Ok (new_nodes, promoted)]
    or [Error reason], where [reason] is the text
    {!Weblab_workflow.Orchestrator.step} reports for the failure. *)
