(** A minimal JSON codec for the serving protocol.

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
