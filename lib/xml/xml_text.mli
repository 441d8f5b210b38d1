(** The text of a document state as it arrived: plain XML, or the
    escaped body of a JSON string holding it (a request's ["xml"]
    member, held in the request line itself, not copied).  A graft reads
    either kind through {!pieces}, and compares a state with the last
    accepted one on its raw bytes. *)

type t = private {
  raw : string;
  off : int;
  len : int;  (** the text's raw bytes are [raw.[off .. off+len-1]] *)
  escaped : bool;  (** a JSON string body rather than the text itself *)
}

val of_string : string -> t
(** Plain text: its raw bytes are the text. *)

val of_json : string -> off:int -> len:int -> t
(** The JSON string body [raw.[off .. off+len-1]], which
    {!Xml_parser.json_scan} accepted. *)

val pieces : t -> int -> (bytes -> int -> int -> int -> unit) -> unit
(** [pieces t from emit] emits the text decoded from raw offset [from]
    (relative to [off], on an escape boundary) on, as
    {!Xml_parser.json_unescape} does; a plain text is one piece.  The
    last argument of [emit] is the absolute raw offset just past the
    piece's source bytes. *)

val to_string : t -> string
(** The decoded text. *)
