(** The protocol's replies as they were built before replies streamed:
    SPARQL solved over Term environments ({!Oracle_store.store_solutions}),
    filtered, sorted and cut into a {!Weblab_relalg.Table.t} of N-Triples
    strings, every reply assembled as one {!Weblab_server.Json.t} tree.
    [Json.to_string] of these trees is what the streamed writer must
    reproduce byte for byte. *)

open Weblab_rdf
open Weblab_server

val select : Triple_store.t -> string -> Weblab_relalg.Table.t
(** The old [Sparql.run]: SELECT only.
    @raise Sparql.Error on malformed queries and on ASK. *)

val ok : Json.t -> (string * Json.t) list -> Json.t
(** [ok req fields]: the echoed id, ["ok": true], then [fields]. *)

val error : Json.t -> string -> string -> Json.t
(** [error req code message]. *)

val sparql : Json.t -> Triple_store.t -> Json.t
(** The reply to a [query kind:"sparql"] request over the store:
    [columns] and [rows], or a [query_error]. *)

val turtle : Json.t -> Triple_store.t -> Json.t
(** The reply to a [query kind:"turtle"] request. *)

val close : Json.t -> Session.stats -> Triple_store.t -> Json.t
(** The reply to a [close] request, given the closed session's stats and
    store: Turtle included when the request asks for it. *)
