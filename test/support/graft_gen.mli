(** Random document states for the graft's properties, shared by the
    workflow and serving tests. *)

open Weblab_xml

val graft_texts : string array
(** Texts that need escaping in XML, some that do not, and some with
    two-, three- and four-byte UTF-8 characters. *)

val escape_into : Buffer.t -> string -> unit
(** XML-escape a text or attribute value into the buffer. *)

val state_xml :
  ?attrs:(Tree.node -> (string * string) list -> (string * string) list) ->
  ?before:(Buffer.t -> Tree.node -> int -> unit) ->
  ?at_end:(Buffer.t -> Tree.node -> unit) ->
  ?from:Tree.node ->
  Tree.t ->
  string
(** The document (or the subtree at [from]) printed with its attributes
    in arena order.  [attrs] may change an element's attributes, [before]
    writes what goes before a child (its parent and index given), and
    [at_end] what goes after an element's last child. *)

val client_state :
  Random.State.t -> layout:int -> step:int -> Tree.t -> string
(** A client's next state for a session holding [doc]: the arena
    printed as the client was told about it, in a layout fixed per
    session, with a few appends and edits, and now and then a corrupted,
    truncated or trailing-junk text. *)

val resend : last:string -> Tree.t -> string
(** The state [last] sent again, with what the last call appended at
    the root echoed before the root's end tag. *)
