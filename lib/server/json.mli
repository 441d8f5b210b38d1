(** A minimal JSON codec for the serving protocol.  String bodies are
    validated and decoded by {!Weblab_xml.Xml_parser.json_scan} and
    {!Weblab_xml.Xml_parser.json_unescape}: request strings must be
    well-formed UTF-8, lone surrogate escapes included.

    The container ships no JSON library and the protocol needs only the
    data model — objects, arrays, strings, numbers, booleans, null — so
    this is a small total parser and printer rather than a dependency.
    Numbers are kept as [Int] when they are exact integers and [Float]
    otherwise; printing escapes control characters and always emits valid
    single-line JSON (newlines inside strings are escaped), which is what
    keeps the newline-delimited framing sound. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> t
(** @raise Parse_error on malformed input, and on arrays and objects
    nested more than 512 deep (total otherwise — no [assert]s, no
    [Invalid_argument] leaks, no stack overflow). *)

val parse_opt : string -> (t, string) result

(** {1 Reading member by member}

    The reader {!parse} folds over, for a caller that walks a request's
    top-level object itself: it may keep a string member raw, and start
    scanning its body past a prefix it knows to be valid.  Every step
    raises {!Parse_error} with the message and offset {!parse} would
    give for the same line. *)

type reader

val reader : string -> reader

val object_start : reader -> bool
(** Skips whitespace; at a ['{'], consumes it and returns [true].
    Otherwise consumes nothing more and returns [false]. *)

val next_member : reader -> string option
(** The key of the next member of the object {!object_start} opened,
    its [':'] consumed; [None] once the object's ['}'] is consumed. *)

val member_value : reader -> t
(** A member's value, nested as {!parse} nests it. *)

val string_start : reader -> int option
(** Skips whitespace; at a string, consumes its opening quote and
    returns its body's offset.  Otherwise [None], consuming nothing
    more. *)

val string_end : reader -> int -> int
(** [string_end r i] scans and validates the open string's body from
    [i] to its closing quote, consumes it, and returns the quote's
    offset.  [i] is the body's offset or a point past a prefix of it
    already known to be a valid body ending on an escape boundary; the
    bytes jumped over are not scanned. *)

val finish : reader -> unit
(** Checks that nothing but whitespace is left.  Adds the bytes of the
    string the reader scanned (all but those {!string_end} jumped over)
    to the counter [json.scanned]. *)

val to_string : t -> string
(** Single-line, minimal whitespace; object members keep their order:
    {!write} into a [Buffer.t]. *)

(** {1 Writing}

    The one printer, over a {!Weblab_rdf.Sink.t}: a reply is written as
    it is produced and leaves the sink a stage at a time. *)

val write : Weblab_rdf.Sink.t -> t -> unit
(** The bytes of {!to_string}. *)

val write_string : Weblab_rdf.Sink.t -> string -> unit
(** A JSON string literal: quoted and escaped as {!write} does [Str]. *)

val write_escaped : Weblab_rdf.Sink.t -> Bytes.t -> int -> int -> unit
(** [write_escaped w b off len] writes the escaped body of
    [b.[off .. off+len-1]] without quotes — a drain for a sink whose
    text becomes one JSON string.  Escaping is byte by byte, so however
    a text is cut into pieces, the pieces escape to the escape of the
    whole. *)

(** {1 Accessors} — each returns [None] on a type mismatch. *)

val member : string -> t -> t option
(** [member k (Obj ...)]; [None] for absent keys and non-objects. *)

val to_str : t -> string option

val to_int : t -> int option
(** Accepts [Int] and integral [Float]s. *)

val to_float_opt : t -> float option

val to_bool : t -> bool option

val to_list : t -> t list option

val str_member : string -> t -> string option

val int_member : string -> t -> int option

val float_member : string -> t -> float option

val bool_member : string -> t -> bool option
