(** Append-only string interning: the dictionary side of the
    structure-of-arrays arena.

    Each document owns one table; element names, attribute names,
    attribute values and text content are stored once and referenced by
    dense integer id from the node arrays.  Ids are never reused, so they
    remain valid across {!Tree.restore} rollbacks —
    stale dictionary entries cost space, not correctness. *)

type t

val create : unit -> t

val intern : t -> string -> int
(** The id of [s], allocating one on first sight.  Writer-side only: one
    domain at a time ({!Tree.fresh_uri} interns its claim under a lock). *)

val find : t -> string -> int option
(** The id of [s] if interned.  Not concurrently with {!intern}. *)

val get : t -> int -> string
(** The string behind an id.  Read-only and safe to call concurrently
    with {!intern} from other domains.
    @raise Invalid_argument on an id never returned by {!intern}. *)

val count : t -> int
(** Number of distinct strings interned so far. *)

val compact : t -> unit
(** Trim the id array's growth slack.  Writer-side only; ids are
    unchanged and later interning grows again. *)
