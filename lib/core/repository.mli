(** A file-based repository for workflow executions — the durable version
    of two Figure 5 stores: one directory per execution id holding the
    document (Resource Repository) and the trace (Execution Trace store).
    The Provenance store is the daemon's write-ahead log
    ({!Weblab_rdf.Wal}, restored by [Session.restore]).

    Loading restores everything inference needs (arena timestamps are
    rebuilt from the persisted [@t] labels), so inference over a loaded
    execution equals inference over the live one. *)


exception Error of string

type t

val open_at : string -> t
(** Open (creating if needed) a repository rooted at the given directory.
    @raise Error if the path exists and is not a directory. *)

val store : t -> id:string -> Engine.execution -> unit
(** Persist document and trace.
    @raise Error on invalid ids (path separators, dots, empty). *)

val load : t -> id:string -> Engine.execution
(** @raise Error when the execution is missing or malformed. *)

val executions : t -> string list
(** Stored execution ids, sorted. *)
