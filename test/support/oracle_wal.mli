(** The whole-string WAL codec {!Weblab_rdf.Wal} replaced: a [Buffer]
    per frame payload, whole batches and compaction dumps built as one
    string, and replay over the whole file as one string with each batch
    held as a list of decoded ops until its commit marker validates.
    Kept as the byte-identity oracle for the writer's output, the result
    oracle for {!Weblab_rdf.Wal.replay}, and the writer of the reset
    frames and compacted logs that older versions wrote and replay still
    reads. *)

open Weblab_rdf

type t
(** An in-memory log: the bytes a file would hold, plus the frames
    staged since the last commit. *)

val create : unit -> t

val log_triple : t -> Term.t * Term.t * Term.t -> unit

val log_reset : t -> unit
(** Stage a reset frame ('R'), which replay honours by discarding every
    triple before it. *)

val log_meta : t -> key:string -> value:string -> unit

val commit : t -> store_size:int -> unit
(** Seal the staged frames under a commit marker and append them to the
    log's bytes. *)

val contents : t -> string
(** The committed bytes: what {!Weblab_rdf.Wal} writes for the same calls,
    staged-but-uncommitted frames excluded. *)

val compact : ?meta:(string * string) list -> Triple_store.t -> string
(** The log an older version's [Wal.compact_to] wrote over a session's
    log at close: one reset, the dump, the metadata and one commit
    marker. *)

val decode : string -> Triple_store.t * Wal.replay_stats
(** Replay a log's bytes: whole validated batches only, a size mismatch
    rebuilt up to the last validated commit. *)
