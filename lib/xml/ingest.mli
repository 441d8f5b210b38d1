(** Streaming ingest: chunked bytes in, a compacted arena out.

    Feeds the {!Xml_parser} event stream to {!Xml_parser.tree_builder},
    so parsing a document and building its arena are a single pass over
    the input — no intermediate DOM.  This is the path the repository
    store uses to load saved documents: the input is materialized
    exactly once, as the arena itself.  (The daemon's client-supplied
    states build no arena of their own: {!Diff.graft} matches their
    events against the session's.)  Whoever evaluates patterns over the
    result indexes it with {!Index.build}. *)

type t
(** An in-progress ingest over a private fresh document. *)

val create : ?preserve_whitespace:bool -> unit -> t
(** A fresh pipeline. *)

val feed : t -> bytes -> int -> int -> unit
(** Consume one chunk; see {!Xml_parser.feed}.  The buffer may be reused
    after return.
    @raise Xml_parser.Error on malformed input. *)

val feed_string : t -> string -> unit

val finish : t -> Tree.t
(** Signal end of input and seal the document ({!Tree.compact}).
    @raise Xml_parser.Error when the input ended mid-document. *)

val of_string : ?preserve_whitespace:bool -> string -> Tree.t * Index.t option
(** Whole-string convenience: [create], one [feed], [finish].  A pair
    only because the perfbench client applies [fst]; its second slot is
    always [None]. *)

val of_channel :
  ?preserve_whitespace:bool -> ?chunk_size:int -> in_channel -> Tree.t
(** Read the channel to EOF in [chunk_size] (default 64 KiB) chunks. *)
