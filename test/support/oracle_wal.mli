(** The whole-string WAL codec {!Weblab_rdf.Wal} replaced: a [Buffer]
    per frame payload, whole batches and compaction dumps built as one
    string, and replay over the whole file as one string with each batch
    held as a list of decoded ops until its commit marker validates.
    Kept as the byte-identity oracle for the writer's output and the
    result oracle for {!Weblab_rdf.Wal.replay}. *)

open Weblab_rdf

type t
(** An in-memory log: the bytes a file would hold, plus the frames
    staged since the last commit. *)

val create : unit -> t

val log_triple : t -> Term.t * Term.t * Term.t -> unit

val log_reset : t -> unit

val log_meta : t -> key:string -> value:string -> unit

val commit : t -> store_size:int -> unit
(** Seal the staged frames under a commit marker and append them to the
    log's bytes. *)

val contents : t -> string
(** The committed bytes: what {!Weblab_rdf.Wal} writes for the same calls,
    staged-but-uncommitted frames excluded. *)

val compact : ?meta:(string * string) list -> Triple_store.t -> string
(** The bytes {!Weblab_rdf.Wal.compact_to} writes: one reset, the dump,
    the metadata and one commit marker. *)

val decode : string -> Triple_store.t * Wal.replay_stats
(** Replay a log's bytes: whole validated batches only, a size mismatch
    rebuilt up to the last validated commit. *)
