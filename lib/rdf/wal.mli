(** Write-ahead log for {!Triple_store}.

    Binary framed records ([tag, u32le length, payload, FNV-1a
    checksum]); triple deltas ('T'), resets ('R') and metadata ('M') are
    staged in memory and made durable under a commit marker ('C', which
    carries the expected post-apply store size as a cross-check),
    fsynced per {!commit}.  {!replay} applies whole validated batches
    only, so recovery from a torn tail is prefix-consistent at commit
    granularity: no partial triple, no duplicate, no half-applied
    commit. *)

(** {1 Writer} *)

type writer

val open_writer : string -> writer
(** Start a fresh log at the path: an existing file is truncated (a
    closed session's log under a reopened id, a torn compaction
    leftover), then records are appended. *)

val log_triple : writer -> Term.t * Term.t * Term.t -> unit
(** Stage a triple.  Not durable until {!commit}. *)

val log_reset : writer -> unit
(** Stage a reset: replay discards all triples logged before this point.
    {!compact_to} writes one ahead of its full dump; a live session never
    needs one, since its export store only grows. *)

val log_meta : writer -> key:string -> value:string -> unit
(** Stage a metadata record; replay keeps the last value per key. *)

val commit : writer -> store_size:int -> unit
(** Seal staged records under a commit marker carrying [store_size] (the
    store's size after this batch) and fsync. *)

val close_writer : writer -> unit
(** Close the fd.  Staged-but-uncommitted records are dropped — they
    were never durable, so replay must not see them. *)

(** {1 Replay} *)

type replay_stats = {
  rp_commits : int;  (** committed batches applied *)
  rp_triples : int;  (** triples applied (post-dedup adds may be fewer) *)
  rp_resets : int;
  rp_torn : bool;  (** a torn/corrupt tail was dropped *)
  rp_meta : (string * string) list;
      (** last value per key, in key first-sight order *)
}

val replay : string -> Triple_store.t * replay_stats
(** Rebuild a store from the log.  A missing file replays as empty;
    anything after the last validated commit marker is dropped. *)

(** {1 Compaction} *)

val compact_to : string -> ?meta:(string * string) list -> Triple_store.t -> unit
(** Rewrite [store] (plus [meta]) as a single reset + full-dump commit
    into a temp file and atomically rename it over the path, bounding
    replay time by live size rather than history length. *)
