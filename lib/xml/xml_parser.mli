(** A streaming XML parser covering the fragment WebLab documents use:
    one root element, attributes with single- or double-quoted values
    (a name repeated in one tag is an error, XML 1.0's Unique Att Spec),
    character data with the five predefined entities and numeric character
    references, comments, CDATA sections and an optional XML declaration /
    DOCTYPE (skipped, internal subset included).  Namespace prefixes are
    kept as part of the name.

    The core is a pull/feed state machine: bytes arrive in chunks through
    {!feed} and SAX-style {!event}s are emitted as tokens complete.  Chunk
    boundaries may fall anywhere — mid-tag, mid-entity, mid-CDATA — and
    the event stream (and any error position) is invariant under
    re-chunking.  {!tree_builder} turns the events into a {!Tree.t};
    {!parse} is the one-chunk wrapper around both. *)

exception Error of { line : int; col : int; message : string }

val error_to_string : exn -> string
(** Render an {!Error} with its line/column position.  Total: any other
    exception renders through {!Printexc.to_string} — error reporting
    never raises, even when handed an exception it does not know. *)

(** {1 Streaming interface} *)

type event =
  | Start_element of string * (string * string) list
      (** Attributes in document order.  Self-closing elements emit
          [Start_element] immediately followed by [End_element]. *)
  | Text of string
      (** One merged character-data run: entities decoded, CDATA inlined,
          comments/PIs elided — emitted only when a child element starts
          or the enclosing tag closes.  Whitespace-only runs are dropped
          unless the parser preserves whitespace. *)
  | End_element of string

type state
(** An in-progress parse: position, partial token, open-element stack. *)

val create : ?preserve_whitespace:bool -> on_event:(event -> unit) -> unit -> state
(** A fresh parser.  [on_event] is called synchronously from {!feed} /
    {!finish} as events complete.  Whitespace-only text is dropped unless
    [preserve_whitespace] is [true] (default [false]). *)

type position = {
  offset : int;  (** bytes consumed since the start of the input *)
  line : int;
  col : int;  (** line and column of the next byte *)
}

val position : state -> position
(** Where the parser stands: just past the last byte it consumed.
    During an [End_element] callback that is just past the end tag's
    ['>'] (or the self-closing tag's). *)

val resume :
  on_event:(event -> unit) ->
  at:position ->
  open_elements:string list ->
  unit ->
  state
(** A parser standing inside element content at [at], with
    [open_elements] (innermost first) open, dropping whitespace-only
    text as {!create} does by default.  When [at] is a position a
    parser of the same document reached just past a tag's ['>'] with
    those elements open, feeding this one the input from [at.offset] on
    emits exactly the events, and raises exactly the errors, that
    parser emits from there on: just past a tag the machine holds
    nothing else.
    @raise Invalid_argument when [open_elements] is empty. *)

val feed : state -> bytes -> int -> int -> unit
(** [feed st buf pos len] consumes the slice [buf[pos .. pos+len)].  The
    bytes are copied out before return where needed (pending character
    data), so the caller may reuse [buf] for the next read.
    @raise Error with a line/column position on malformed input.
    @raise Invalid_argument on an out-of-range slice or a finished parser. *)

val feed_string : state -> string -> unit
(** [feed] over a whole string. *)

val finish : state -> unit
(** Signal end of input; fails unless the parser sits exactly after a
    complete document (root closed, nothing but misc markup after).
    @raise Error when the input ended mid-document. *)

(** {1 JSON string bodies}

    A client sends a document state as the body of a JSON string.  These
    are the one validator and the one decoder of such bodies: the JSON
    codec reads every string with them, and a graft unescapes a state's
    body straight into {!feed}. *)

exception Json_error of int * string
(** A malformed body: the offset of the fault in the scanned string, and
    what it is. *)

val json_scan : string -> int -> int -> int * int
(** [json_scan s i n] validates the string body starting at [i] (just
    past its opening quote, or at the end of a valid body's prefix ending
    on an escape boundary) up to its closing quote, which must come
    before [n].  Returns the quote's offset and the decoded length of
    [s.[i .. quote-1]].  Rejects, at the offending offset, a missing
    closing quote, a raw byte below 0x20, a malformed escape, an
    unpaired surrogate of either half and ill-formed UTF-8 (RFC 3629: no
    overlong form, no encoded surrogate, nothing past U+10FFFF, the
    error at the sequence's lead byte).  Eight bytes a step while a word
    holds no quote, backslash, control or non-ASCII byte.
    @raise Json_error on a malformed body. *)

val json_unescape :
  string -> int -> int -> (bytes -> int -> int -> int -> unit) -> unit
(** [json_unescape s i j emit] decodes the body [s.[i .. j-1]], which
    {!json_scan} accepted (or a suffix of it starting on an escape
    boundary), in pieces: [emit b off len next] for each run of plain
    bytes, in place in [s], and for each escape, 1 to 4 bytes in a
    scratch buffer that the next piece overwrites; [next] is the offset
    in [s] just past the piece's source bytes. *)

val json_plain_run : string -> int -> int -> int
(** [json_plain_run s i n]: the end of the run of bytes of [s] from [i]
    that print as themselves in a JSON string (anything but ['"'],
    ['\\'] or a byte below 0x20), [n] at the latest: the encoder's
    scanner. *)

(** {1 Building a tree} *)

val tree_builder : unit -> Tree.t * (event -> unit)
(** A fresh empty document and the event handler that appends each
    element and text event to it (pass it as [on_event] to {!create}).
    The one event-to-{!Tree} builder: {!parse} and {!Ingest} both use it.
    Events are trusted to be balanced, as the parser emits them. *)

val parse : ?preserve_whitespace:bool -> string -> Tree.t
(** Parse a document in one chunk.  Whitespace-only text nodes are
    dropped unless [preserve_whitespace] is [true] (default [false]).
    @raise Error with a line/column position on malformed input. *)
