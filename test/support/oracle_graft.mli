(** The Recorder's blackbox graft before it ran on the parser's events:
    parse the next state into a second arena, diff it against the live
    one ({!Weblab_xml.Diff.diff}), adopt URI promotions on matched nodes
    and deep-copy each added fragment in.  Kept as the oracle for
    {!Weblab_xml.Diff.graft}. *)

open Weblab_xml

val copy_subtree : Tree.t -> src:Tree.t -> Tree.node -> parent:Tree.node -> Tree.node
(** [copy_subtree dst ~src n ~parent] deep-copies the subtree of [src]
    rooted at [n] into [dst] under [parent], in preorder, creation
    timestamps included; returns the new root. *)

val graft : Tree.t -> string -> (Tree.node list * Tree.node list, string) result
(** [graft doc xml]: [Ok (new_nodes, promoted)] — the appended arena
    tail and the promoted nodes, in the order the orchestrator reports
    them — or [Error reason] with the orchestrator's append-violation
    text (without its ["append violation: "] prefix).  A failure leaves
    [doc] unchanged. *)
