(** Sequential workflow execution with provenance recording (§2 and §6).

    The orchestrator plays the roles of both the WebLab service bus and the
    paper's {e Recorder}: it runs each service call on the current document
    state, verifies the append semantics (d_{i-1} ⊑_uri d_i, Definition 2),
    identifies the resources generated by the call (directly for in-process
    services, through the XML-diff service for black-box ones), labels them
    with the service call ([@s]/[@t] attributes) and records the execution
    trace (the Source table of Figure 2).

    Execution is fault-tolerant: every call runs under a supervision
    {!policy} and commits transactionally.  A failing attempt — service
    exception, append violation, duplicate URI, blown budget — rolls the
    arena back to the last commit (bit-identical, via {!Tree.checkpoint}),
    is recorded in the trace, and is retried with deterministic simulated
    backoff; a call whose attempts are exhausted either propagates its
    exception or burns its timestamp and lets the workflow continue,
    depending on the policy. *)

open Weblab_xml

exception Append_violation of string
(** A service modified or removed existing content.  Services may only add
    new fragments and promote existing nodes to resources by giving them an
    ["id"] attribute. *)

exception Duplicate_uri of string

exception Budget_exceeded of string
(** A call overran its per-call output-size or time budget. *)

exception Orchestrator_error of string
(** An internal bookkeeping inconsistency (e.g. a resource losing its URI
    between enumeration and labeling).  Typed so a long-lived daemon can
    fail the affected session cleanly instead of aborting the process on
    an [assert false]. *)

(** {1 Supervision policy} *)

type policy = {
  retries : int;  (** extra attempts after the first failure *)
  backoff_ms : float;
      (** simulated exponential backoff base: attempt [k] is charged
          [backoff_ms * 2^(k-2)] ms in the trace — recorded, never slept,
          so executions stay deterministic *)
  max_new_nodes : int option;  (** per-call output-size budget *)
  max_call_s : float option;
      (** per-call CPU-time budget, checked after the call returns *)
  on_failure : [ `Propagate | `Skip ];
      (** once attempts are exhausted: re-raise the last exception, or
          record the failure and continue with the next call *)
}

val default_policy : policy
(** No retries, no budgets, [`Propagate] — the historical all-or-nothing
    behavior, except that a failed call now rolls its partial appends
    back before the exception escapes. *)

type delta = {
  new_nodes : Tree.node list;
      (** the arena tail the call appended, in id order (fragment
          pre-order); every node has [Tree.created] = the call's time *)
  promoted : Tree.node list;
      (** committed nodes the call promoted to resources by giving them
          an ["id"] attribute *)
}
(** What one committed call changed — the d{_i-1} ⊑{_uri} d{_i}
    difference, already computed by the append-semantics check. *)

(** {1 Stepwise sessions}

    The orchestration state, reified: a long-lived daemon drives calls
    one at a time over a live document instead of handing over a whole
    service list up front.  {!execute} is a fold over {!step}. *)

type session
(** One live workflow execution: the document, its trace, the supervision
    policy and the incremental bookkeeping (URI set, labeling state, the
    next timestamp). *)

val start : ?policy:policy -> Tree.t -> session
(** Perform the execution prologue on a live document: promote the root
    to a resource if needed, scan URIs for uniqueness, label the initial
    resources as the pseudo-call ["Source"] at timestamp 0.  The next
    {!step} commits at timestamp 1.
    @raise Invalid_argument if the document has no root.
    @raise Duplicate_uri if the initial document repeats a URI. *)

type step_result =
  | Committed of { delta : delta; attempts : int }
      (** the call committed (after [attempts - 1] retries) *)
  | Step_failed of { reason : string; exn : exn; attempts : int }
      (** every attempt failed: the arena was rolled back (bit-identical
          to the previous commit), the timestamp is burned, and the trace
          records the outcome.  The session stays usable — the caller
          decides whether to propagate [exn] or carry on, so a daemon
          fails the call, never the session. *)

val step :
  ?on_step:(Trace.call -> Doc_state.t -> Doc_state.t -> delta -> unit) ->
  session ->
  Service.t ->
  step_result
(** Run one supervised call at the session's next timestamp.  [on_step]
    fires only when the call commits, with the call, the surrounding
    document states and the committed {!delta} — exactly the hook
    {!execute} passes through. *)

val session_doc : session -> Tree.t

val session_trace : session -> Trace.t
(** The trace so far — live, also usable between steps (for strategy
    snapshots over a running session). *)

val session_policy : session -> policy

val next_time : session -> int
(** The timestamp the next {!step} will commit (or burn). *)

val execute :
  ?policy:policy ->
  ?on_step:(Trace.call -> Doc_state.t -> Doc_state.t -> delta -> unit) ->
  Tree.t ->
  Service.t list ->
  Trace.t
(** [execute doc services] runs the calls at timestamps 1, 2, …; the
    initial resources of [doc] are attributed to the pseudo-service
    ["Source"] at timestamp 0 (and the root is promoted to a resource when
    needed).  [on_step] is invoked after each {e committed} call with the
    call, the document states before and after it, and the {!delta} the
    call committed — the hook the Online and Fused provenance
    strategies use; it never fires for failed calls (a failed attempt is
    rolled back before the hook could run, so observers never see
    discarded nodes).

    Failed calls still consume a timestamp, so the surviving calls keep
    the [@t] labels they would have had; the trace records every attempt
    ({!Trace.attempts}) and outcome ({!Trace.outcome_at}), and
    {!Trace.calls} lists committed calls only. *)

val initial_document : ?root_name:string -> ?root_uri:string -> unit -> Tree.t
(** A fresh document with a single resource root. *)

val fresh_uri : Tree.t -> string
(** A URI of the form ["r<k>"] not yet used in the document.  The
    allocator is incremental (amortized O(appended nodes), not O(document)
    per call) and registers the URI at allocation time, so a later
    allocation can never collide with it even before it is assigned. *)

val check_unique_uris : Tree.t -> unit
(** Full-document URI uniqueness scan.
    @raise Duplicate_uri on the first duplicate found.  [execute] runs
    this once on the initial document and then checks incrementally at
    each commit boundary. *)
