(** One live serving session: an orchestrator execution over a private
    document plus the Fused engine observing it, queryable between
    appends.  All four strategies give the same answers, and Fused is
    the one whose commit cost follows the delta, so it is the only one
    served; the tests check a session against each offline strategy.

    A session is the daemon-side reification of one workflow run.  Verbs
    are serialized per session with {!with_lock} (connections may share a
    session id); the document, trace and engine state are private to the
    session, so sessions never contend beyond the process-wide caches
    (which carry their own locks).

    Client-supplied document states ({!client_xml_service}) commit
    through the orchestrator's blackbox route, which grafts them onto the
    session's arena straight from their parser events
    ({!Weblab_xml.Diff.graft}): one pass over the text, no second arena,
    and nothing written unless the whole state parses and contains the
    current one.

    Failure containment: a commit whose every supervised attempt fails is
    rolled back by the orchestrator (arena bit-identical to the previous
    commit) and reported as [Error] — the session stays open and
    queryable.  Only {!close} or an explicit budget exhaustion ends it.

    Persistence: with a [wal_path], every commit appends the triples its
    step added to the session's export store to a write-ahead log
    ({!Weblab_rdf.Wal}), fsynced per commit.  After a daemon restart, {!restore} replays the
    log into a {e read-only} session that serves [turtle]/[sparql]/
    [why]/[impact] over the recovered store — the Turtle export is
    byte-identical to what the live session last served — while
    [commit] returns [Restored_read_only]. *)

open Weblab_xml
open Weblab_workflow
open Weblab_prov

type budgets = {
  policy : Orchestrator.policy;
      (** per-call supervision: retries, backoff, output-size and time
          budgets.  [on_failure] is forced to [`Skip] semantics — the
          daemon decides per call; a poisoned commit must not tear the
          session down. *)
  max_commits : int option;
      (** per-session ceiling on attempted commits (committed + burned);
          reaching it rejects further [commit]s but leaves queries up *)
}

val default_budgets : budgets

type t

val id : t -> string

val backend_name : t -> string
(** ["fused"], or the backend a restored session's WAL names. *)

val create :
  id:string ->
  backend:Strategy.kind ->
  ?budgets:budgets ->
  ?wal_path:string ->
  doc:Tree.t ->
  Strategy.rulebook ->
  t
(** Runs the orchestration prologue ({!Orchestrator.start}) and Fused's
    [init] at width 1 on [doc].  [wal_path] turns on persistence: the
    log there starts fresh (a closed session's log under a reopened id is
    truncated), the empty session is made durable immediately and every
    commit appends its triple delta.  [backend] is kept for the
    benchmark's driver.
    @raise Invalid_argument if [backend] is not [`Fused].
    @raise Orchestrator.Duplicate_uri if [doc] repeats a URI. *)

val restore : id:string -> wal_path:string -> t * Weblab_rdf.Wal.replay_stats
(** Rebuild a session from its write-ahead log.  The result is
    read-only: queries answer over the replayed store ([turtle] is
    byte-identical to the live session's last synced export), [commit]
    returns [Restored_read_only].  Backend name and commit counters are
    recovered from WAL metadata, whichever backend it names. *)

val is_restored : t -> bool

val wal_path : t -> string option
(** The live session's WAL path, if persisted. *)

val with_lock : t -> (unit -> 'a) -> 'a
(** Per-session mutual exclusion — every protocol verb runs under it.
    Reads need it as much as writes: a pattern probe of the export store
    may merge the store's tail into its sorted runs
    ({!Weblab_rdf.Triple_store}), so {!sparql}, {!turtle}, {!stats} and
    every other use of {!store} must run under the lock. *)

val client_xml_text : ?name:string -> Xml_text.t -> Service.t
(** A commit payload carrying the full next document state, wrapped as
    a streaming {!Service.blackbox_doc}: the orchestrator grafts the
    text straight from its parser events onto the live arena
    ({!Weblab_xml.Diff.graft}), so the daemon neither serializes the live
    document as a pseudo-input nor builds a second arena of the state.
    A request's escaped ["xml"] body is grafted where it lies in the
    request line.  [name] defaults to ["ClientXml"].  Malformed XML
    fails the commit, not the session. *)

val client_xml_service : ?name:string -> string -> Service.t
(** {!client_xml_text} of a plain XML string. *)

val accepted : t -> Diff.resume option
(** The record the session's next client-XML graft resumes from
    ({!Weblab_workflow.Orchestrator.accepted}); [None] once closed or
    restored.  Read it under {!with_lock}. *)

val forget_accepted : t -> unit
(** Drop that record: the next graft parses its whole state, with the
    same result. *)

val doc : t -> Tree.t option
(** The live session's document; [None] once closed or restored. *)

(** {1 Verbs} *)

type commit_ok = {
  time : int;  (** the timestamp the call committed at *)
  attempts : int;
  new_nodes : int;
  promoted : int;
}

type commit_error =
  | Budget_exhausted of string  (** session [max_commits] reached *)
  | Call_failed of { reason : string; attempts : int; time : int }
      (** every supervised attempt failed; the arena was rolled back and
          timestamp [time] burned.  The session remains usable. *)
  | Session_closed
  | Restored_read_only
      (** the session was recovered from a WAL; it has no orchestrator
          state to append to *)

val commit : t -> Service.t -> (commit_ok, commit_error) result
(** Run one supervised service call at the session's next timestamp; on
    commit Fused observes the delta and, for persisted sessions, the WAL
    is synced (fsync per commit).  Failed calls sync too — they appear
    in the exported graph as invalidated activities. *)

val graph : t -> Prov_graph.t
(** The provenance graph of the execution so far (Fused's live graph).
    For a restored session, the graph recovered from the replayed store
    ({!Weblab_prov.Prov_export.of_store}) on first use. *)

val why : t -> string -> string list
(** Transitive ancestors of a URI in the live graph (sorted), by a
    traversal of the graph's adjacency ({!Weblab_prov.Query}); [[]] for a
    URI the graph does not know. *)

val impact : t -> string -> string list
(** Transitive descendants (sorted), likewise. *)

val store : t -> Weblab_rdf.Triple_store.t
(** The session's export store.  It only grows: a persisted session
    appends each commit's step at sync, an unpersisted one catches up
    here.  Its triple sequence is {!Weblab_prov.Prov_export.to_store}
    [~trace] of {!graph}, and a persisted session's WAL replays to it.
    For a restored session, the replayed store.  Probing it may merge
    its tail: call under {!with_lock}. *)

val trace : t -> Trace.t option
(** The live session's execution trace; [None] once restored. *)

val sparql : t -> string -> Weblab_rdf.Sparql.rows
(** A SELECT query evaluated against {!store}.  The rows read the store:
    render them under {!with_lock}.
    @raise Weblab_rdf.Sparql.Error on malformed queries and ASK. *)

val turtle : t -> string
(** Turtle rendering of {!store}, with the trace's failed calls.  A
    restored session's is byte-identical to what the live session served
    at its last sync. *)

val turtle_render : t -> Weblab_rdf.Sink.t -> unit
(** [turtle_render t] brings {!store} up to date at once — everything
    that can fail — and returns the render of {!turtle}'s bytes into a
    sink, which is total.  Call both under {!with_lock}.  The
    [session.query.turtle] histogram records the catch-up and the
    render as one observation. *)

type stats = {
  st_id : string;
  st_backend : string;
  st_next_time : int;
  st_commits : int;  (** committed calls *)
  st_failed : int;  (** burned timestamps *)
  st_doc_nodes : int;  (** 0 for restored sessions (no document) *)
  st_graph_size : int;  (** labeled resources in the current graph *)
  st_links : int;
  st_closed : bool;
  st_restored : bool;
  st_store : Weblab_rdf.Triple_store.store_stats;
      (** columnar-store census of the current export store *)
}

val stats : t -> stats

val close : t -> Prov_graph.t
(** Finalize the engine and return the final graph.  Idempotent;
    further [commit]s return [Session_closed], further queries keep
    answering over the final graph.  A persisted session seals its
    final state as one more commit of the WAL and closes it; the log,
    which only ever gained the store's triples, is kept as it is for
    later {!restore}. *)
