(** The session registry: a map from session id to {!Session.t} with
    admission control (DESIGN §4h).

    One mutex guards the table.  It covers membership and the live
    count only and is never held across a verb or a session build —
    per-session mutual exclusion is {!Session.with_lock}, taken after
    the lookup.

    Admission control is a hard cap on live sessions: a client [open]
    beyond [max_sessions] is rejected up front (counted in
    [serve.sessions.rejected]) instead of degrading every resident
    session. *)

type t

val create : ?max_sessions:int -> unit -> t
(** Default: 1024 sessions. *)

val max_sessions : t -> int

type open_error =
  | Admission_rejected of string  (** live-session cap reached *)
  | Already_open of string  (** id collision *)

val add :
  ?capped:bool ->
  t ->
  id:string option ->
  (id:string -> Session.t) ->
  (Session.t, open_error) result
(** Duplicate check, admission check and slot claim in one critical
    section (a duplicate id is [Already_open] even at capacity).
    [~capped:false] skips the admission check: boot restores every
    persisted session, since each holds acknowledged data that a later
    [open] of its id would truncate; the sessions it restores still
    count against the cap that client opens meet.  With
    [~id:None] the registry picks the id in that same section: the next
    ["s<n>"] of a per-registry counter that no slot holds, so it never
    collides with a client-chosen or restored id and is never reused
    within a run.  The session is built by the callback, given the
    claimed id, outside the lock and only once the slot is claimed (so a
    rejected open never runs the orchestration prologue).  If the
    callback raises, the slot is released and the exception
    propagates. *)

val find : t -> string -> Session.t option

val remove : t -> string -> Session.t option
(** Drop the id and free its admission slot; the caller finalizes the
    session ({!Session.close}) outside the registry lock. *)

val live : t -> int
(** Live sessions plus those still being built. *)

val ids : t -> string list
(** All live session ids, sorted. *)
