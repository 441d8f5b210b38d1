(** Workflow execution traces — the Source table of Figure 2.

    A trace records, for every labeled resource of the final document,
    the service call (service name, timestamp) that produced it; together
    with the final document it {e is} the workflow execution trace from
    which all provenance is inferred (§2).

    It is the one home of λ: a provenance graph reads its labels from
    its trace and adds only the edge set E. *)

open Weblab_xml

type call = {
  service : string;
  time : int;  (** 0 is the pseudo-call "Source" owning initial content *)
}

val call_id : call -> string
(** ["c<t>"] — the call names of Figure 2. *)

type entry = {
  uri : string;
  node : Tree.node;  (** {!Tree.no_node} for entries loaded from storage *)
  call : call;
}

(** {1 Outcomes}

    Execution stopped being all-or-nothing: calls can fail (and be rolled
    back) or succeed after retries.  Outcomes label timestamps; the link
    inference strategies only ever see committed calls ({!calls} stays
    successful-only), while analytics and PROV export also report the
    failed ones. *)

type outcome =
  | Ok  (** committed on the first attempt *)
  | Failed of string
      (** never committed; the timestamp is burned and the document state
          is bit-identical to the previous commit *)
  | Retried of int  (** committed after this many failed attempts *)

type attempt = {
  a_service : string;
  a_time : int;
  a_attempt : int;  (** 1-based attempt number within the call *)
  a_ok : bool;
  a_reason : string;  (** failure reason; [""] when [a_ok] *)
  a_backoff_ms : float;
      (** simulated (deterministic, never slept) backoff charged before
          this attempt *)
}

type t

val create : unit -> t

val add_call : t -> call -> unit
(** Record a {e committed} call (outcome defaults to [Ok]). *)

val add_entry : ?step:int -> t -> entry -> unit
(** Record a labeled resource.  [step] is the timestamp of the call
    during which the label was recorded; it defaults to [entry.call.time]
    and differs from it only for a node promoted to a resource by a later
    call, which is labeled with the call that created it but recorded at
    the promoting call's step.  Recording a URI again replaces its
    entry, which keeps its position and first step. *)

val record_attempt : t -> attempt -> unit

val record_outcome : t -> call -> outcome -> unit
(** Set the outcome of a timestamp; [Failed _] calls are additionally
    listed by {!failed_calls} (and must {e not} be [add_call]ed). *)

val calls : t -> call list
(** Committed calls only, in execution order — the domain the inference
    strategies quantify over.  Failed timestamps never appear here. *)

val failed_calls : t -> call list
(** Calls whose every attempt failed, in execution order. *)

val attempts : t -> attempt list
(** Every supervision attempt (successful, retried and failed), in
    execution order. *)

val attempt_count : t -> int -> int
(** The number of supervision attempts recorded at a timestamp. *)

val outcome_at : t -> int -> outcome option
(** The outcome recorded for a timestamp, committed or failed. *)

val attempted_call : t -> int -> call option
(** The call made at a timestamp, committed or failed. *)

val last_time : t -> int
(** The largest timestamp with a recorded call or outcome; [-1] for an
    empty trace. *)

val entries : t -> entry list
(** Sorted by call timestamp. *)

val entry_count : t -> int
(** The number of labeled resources, in constant time. *)

val iter_entries_from : t -> int -> (entry -> int -> unit) -> unit
(** [iter_entries_from t k f] applies [f entry step] to the entries from
    the [k]-th on, in recording order: the entries recorded since the
    trace held [k] of them. *)

val call_at : t -> int -> call option

val resources_of_call : t -> call -> string list
(** The out(c) of the model: URIs of the resources the call produced. *)

val call_of_resource : t -> string -> call option
(** The labeling function λ, in constant time. *)

val step_of_resource : t -> string -> int option
(** The step a resource's label was recorded at, in constant time. *)

val source_table : t -> string
(** The rendered Source table (Res. | Call | Service | Time). *)

val attempts_table : t -> string
(** A rendered table of every supervision attempt and its outcome. *)
