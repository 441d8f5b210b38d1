(** The byte-at-a-time JSON string decoder {!Weblab_server.Json} used
    before it scanned plain bytes in runs, kept as the oracle for its
    values, error messages and error offsets. *)

val parse_string_document : string -> (string, string) result
(** Decode a document holding one JSON string literal, with optional
    surrounding whitespace, as [Json.parse_opt] does: [Ok] the decoded
    bytes, or [Error] the same ["at offset N: ..."] message.  A document
    whose first token is not a string yields an [Error] no parser
    message uses. *)
