(** Write-ahead log for {!Triple_store}.

    Binary framed records ([tag, u32le length, payload, FNV-1a
    checksum]); triple deltas ('T') and metadata ('M') are staged and
    made durable under a commit marker ('C', which carries the expected
    post-apply store size as a cross-check), fsynced per {!commit}.
    {!replay} applies whole validated batches only, so recovery from a
    torn tail is prefix-consistent at commit granularity: no partial
    triple, no duplicate, no half-applied commit.

    A log is append-only: the store it records only grows, so the log
    as last committed is already its snapshot, and nothing rewrites it.
    Replay still honours reset records ('R'), which logs compacted by
    older versions begin with.

    Memory is bounded by a 64 KiB staging buffer per writer and one
    64 KiB read buffer per replay, whatever the size of a batch or the
    log; only a single record larger than that is held whole.  A created
    log's directory is fsynced too. *)

(** {1 Writer} *)

type writer

val open_writer : string -> writer
(** Start a fresh log at the path: an existing file is truncated (a
    closed session's log under a reopened id), then records are
    appended.  The directory is fsynced, so
    the new log's entry survives power loss. *)

val log_triple : writer -> Term.t * Term.t * Term.t -> unit
(** Stage a triple.  Not durable until {!commit}; once the stage holds
    64 KiB it is written out ahead of the marker, which replay does not
    apply without its marker. *)

val log_meta : writer -> key:string -> value:string -> unit
(** Stage a metadata record; replay keeps the last value per key. *)

val commit : writer -> store_size:int -> unit
(** Seal staged records under a commit marker carrying [store_size] (the
    store's size after this batch), write them out and fsync. *)

val close_writer : writer -> unit
(** Close the fd.  Staged-but-uncommitted records are dropped — they
    were never durable, so replay must not see them (any already written
    out lack a marker, so replay drops them too). *)

(** {1 Replay} *)

type replay_stats = {
  rp_commits : int;  (** committed batches applied *)
  rp_triples : int;  (** triples applied (post-dedup adds may be fewer) *)
  rp_resets : int;  (** resets applied: only an older compacted log has one *)
  rp_torn : bool;  (** a torn/corrupt tail was dropped *)
  rp_meta : (string * string) list;
      (** last value per key, in key first-sight order *)
}

val replay : string -> Triple_store.t * replay_stats
(** Rebuild a store from the log.  A missing file replays as empty;
    anything after the last validated commit marker is dropped.  Triples
    are applied as they are read; when any past that marker were, the
    store is rebuilt by reading again up to it. *)
