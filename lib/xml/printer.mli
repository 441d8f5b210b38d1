(** Serialization of WebLab documents to XML text.

    Output is canonical: attributes print sorted, so two structurally
    equal documents ({!Tree.equal_subtree}) serialize identically — which
    the black-box Recorder relies on when round-tripping documents through
    services.

    All entry points drive one iterative traversal over an output sink:
    serialization cost is O(output bytes) with O(depth) heap and O(1)
    call-stack — a degenerate million-deep chain prints fine — and the
    buffer/channel variants stream without building a whole-document
    string first. *)

val subtree_to_string :
  ?indent:bool -> ?visible:(Tree.node -> bool) -> Tree.t -> Tree.node -> string
(** Serialize one subtree.  [visible] restricts the output to a document
    state (nodes failing the predicate are skipped together with their
    subtrees); [indent] pretty-prints with two-space indentation. *)

val to_string : ?indent:bool -> ?visible:(Tree.node -> bool) -> Tree.t -> string
(** Serialize the whole document ([""] when it has no root). *)

(** {1 Streaming output} *)

val subtree_to_buffer :
  ?indent:bool ->
  ?visible:(Tree.node -> bool) ->
  Buffer.t ->
  Tree.t ->
  Tree.node ->
  unit
(** Append one subtree to [buf].  When the buffer is already non-empty,
    indented output starts on a fresh line (the document composes under
    concatenation exactly as the string API did). *)

val to_buffer :
  ?indent:bool -> ?visible:(Tree.node -> bool) -> Buffer.t -> Tree.t -> unit
(** Append the whole document to [buf] (nothing when it has no root). *)

val subtree_to_channel :
  ?indent:bool ->
  ?visible:(Tree.node -> bool) ->
  out_channel ->
  Tree.t ->
  Tree.node ->
  unit

val to_channel :
  ?indent:bool -> ?visible:(Tree.node -> bool) -> out_channel -> Tree.t -> unit
(** Stream the whole document to [oc] without materializing it as a
    string (nothing when it has no root).  The caller flushes. *)
