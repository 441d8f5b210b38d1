open Weblab_xml
module T = Weblab_obs.Telemetry

let c_committed = T.counter "orch.calls.committed"
let c_failed = T.counter "orch.calls.failed"
let c_retried = T.counter "orch.calls.retried"
let c_attempts = T.counter "orch.attempts"
let c_attempts_failed = T.counter "orch.attempts.failed"
let c_backoff_ms = T.counter "orch.backoff_ms"

exception Append_violation of string

(* What a committed call changed: the arena tail it appended (in id
   order, which is also fragment pre-order) and the committed nodes it
   promoted to resources.  Handed to the [on_step] hook so strategies can
   work from the delta instead of re-scanning states. *)
type delta = {
  new_nodes : Tree.node list;
  promoted : Tree.node list;
}

exception Duplicate_uri of string

exception Budget_exceeded of string

exception Orchestrator_error of string
(* An internal bookkeeping inconsistency (e.g. a resource losing its URI
   between enumeration and labeling).  Typed, not [assert false]: a
   long-lived daemon must fail the session that hit it, never abort the
   process. *)

let log = Logs.Src.create "weblab.orchestrator" ~doc:"WebLab workflow orchestrator"

module Log = (val Logs.src_log log)

let initial_document ?(root_name = "Resource") ?(root_uri = "r1") () =
  let doc = Tree.create () in
  let root = Tree.new_element doc ~parent:Tree.no_node root_name in
  Tree.set_uri doc root root_uri;
  doc

(* A URI names one resource (Definition 1): the document's URI table
   gives each URI to its first carrier, so any other carrier repeats it. *)
let check_owns_uri doc n =
  match Tree.uri doc n with
  | Some u when Tree.find_resource doc u <> Some n -> raise (Duplicate_uri u)
  | Some _ | None -> ()

let check_unique_uris doc = List.iter (check_owns_uri doc) (Tree.resources doc)

(* The append check of in-process services reads the committed state
   back through the checkpoint [step] takes anyway.  Only URI promotion
   (adding an "id" to a node that had none) is tolerated as a change.
   Returns whether the node was promoted. *)
let check_committed doc ck n =
  let fail what =
    raise
      (Append_violation
         (Printf.sprintf "service modified committed node %d (%s)" n what))
  in
  if not (String.equal (Tree.text_at doc ck n) (Tree.text doc n)) then
    fail "text content";
  (* Attributes: removal and modification are violations; adding "id"
     (resource promotion) is allowed, other additions are not. *)
  let old_attrs = Tree.attrs_at doc ck n in
  List.iter
    (fun (k, v) ->
      match Tree.attr doc n k with
      | Some v' when String.equal v v' -> ()
      | Some _ -> fail (Printf.sprintf "attribute %s changed" k)
      | None -> fail (Printf.sprintf "attribute %s removed" k))
    old_attrs;
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k old_attrs) && not (String.equal k "id") then
        fail (Printf.sprintf "attribute %s added to committed node" k))
    (Tree.attrs doc n);
  (* promoted: it gained a URI *)
  (not (List.mem_assoc "id" old_attrs)) && Tree.uri doc n <> None

(* Both runners return the committed nodes the call gave an "id" to;
   what it appended is the arena's tail.  Only the nodes the call wrote
   in place can fail the check or be promoted. *)
let run_inproc doc ck f =
  f doc;
  (List.filter (check_committed doc ck) (Tree.changed_since doc ck), None)

(* Both blackbox modes graft the next state's XML text straight from its
   parser events (the paper's XML-diff service, in one pass); parse and
   containment failures become append violations, and nothing is written
   to the arena unless the whole state is accepted.  [Blackbox_doc] is
   handed no serialized input: its thunk yields the state, typically a
   request's escaped body.  [from] is the session's last accepted state,
   which the graft resumes after. *)
let run_blackbox ?from doc xml =
  try
    let promoted, accepted = Diff.graft ?from ~doc xml in
    (promoted, Some accepted)
  with
  | Xml_parser.Error _ as e ->
    raise
      (Append_violation
         ("service returned unparsable XML: " ^ Xml_parser.error_to_string e))
  | Diff.Not_contained msg -> raise (Append_violation msg)

(* ----- Supervision policy ----- *)

type policy = {
  retries : int;
  backoff_ms : float;
  max_new_nodes : int option;
  max_call_s : float option;
  on_failure : [ `Propagate | `Skip ];
}

let default_policy =
  { retries = 0; backoff_ms = 0.; max_new_nodes = None; max_call_s = None;
    on_failure = `Propagate }

(* Deterministic simulated exponential backoff: attempt k (1-based) is
   charged base * 2^(k-2) milliseconds, attempt 1 none.  The charge is
   recorded in the trace, never slept — executions stay reproducible and
   fast. *)
let backoff_for policy attempt =
  if attempt <= 1 || policy.backoff_ms <= 0. then 0.
  else policy.backoff_ms *. (2. ** float_of_int (attempt - 2))

let failure_reason = function
  | Append_violation m -> "append violation: " ^ m
  | Duplicate_uri u -> "duplicate URI " ^ u
  | Budget_exceeded m -> "budget exceeded: " ^ m
  | Orchestrator_error m -> "orchestrator error: " ^ m
  | Failure m -> "failure: " ^ m
  | e -> Printexc.to_string e

(* ----- Stepwise sessions -----

   The orchestration state that [execute] used to keep in closure-local
   mutables, reified so a long-lived daemon can drive calls one at a time
   over a live document: [start] performs the prologue (root promotion,
   URI check, Source labeling), each [step] runs exactly one supervised
   call at the next timestamp, and [execute] is now a fold over [step].
   A failed step burns its timestamp and reports the failure to the
   caller instead of consulting [policy.on_failure] itself — the daemon
   fails the call, not the session. *)

(* [s_accepted] is the state the last step's blackbox call committed,
   which the next blackbox graft resumes after.  Every step clears it
   first, and only a committed [Blackbox] or [Blackbox_doc] attempt sets
   it again, so an in-process call, a failed step or a rollback leaves
   none; the attempts of one step all resume from the state before it. *)
type session = {
  s_doc : Tree.t;
  s_trace : Trace.t;
  s_policy : policy;
  mutable s_next_time : int;
  mutable s_accepted : Diff.resume option;
}

let session_doc s = s.s_doc
let session_trace s = s.s_trace
let next_time s = s.s_next_time
let accepted s = s.s_accepted
let forget_accepted s = s.s_accepted <- None

(* Label the given resources (in document order), each new to labeling:
   [start] hands over the initial resources, [step] only the ones its
   call appended or promoted.  Each is attributed to the call made at
   its creation timestamp (this covers both fresh resources and nodes
   promoted to resources by a later call, as node 3 of Figure 4 is). *)
let label_resources s ~now nodes =
  let doc = s.s_doc in
  List.iter
    (fun n ->
      (* A node older than the current call was just promoted. *)
      Tree.set_uri_time doc n
        (if Tree.created doc n < now then now else Tree.created doc n);
      let time = Tree.created doc n in
      let call =
        match Trace.attempted_call s.s_trace time with
        | Some c -> c
        | None -> { Trace.service = "Source"; time }
      in
      if Tree.service_label doc n = None then
        Tree.set_service_label doc n call.Trace.service time;
      match Tree.uri doc n with
      | Some uri ->
        Trace.add_entry ~step:now s.s_trace { Trace.uri; node = n; call }
      | None ->
        raise
          (Orchestrator_error
             (Printf.sprintf
                "resource node %d lost its URI during labeling at t%d" n now)))
    nodes

(* A resource unlabeled before a call is one the call appended or
   promoted: those are the only candidates, sorted into document order
   by their root paths (sibling ids increase along every chain, so the
   paths compare lexicographically in preorder). *)
let delta_resources doc { new_nodes; promoted } =
  let path n =
    let rec up n acc =
      if n = Tree.no_node then acc else up (Tree.parent doc n) (n :: acc)
    in
    up n []
  in
  List.filter (Tree.is_resource doc) (List.rev_append promoted new_nodes)
  |> List.map (fun n -> (path n, n))
  |> List.sort (fun (a, _) (b, _) -> List.compare Int.compare a b)
  |> List.map snd

let start ?(policy = default_policy) doc =
  if not (Tree.has_root doc) then
    invalid_arg "Orchestrator.start: the document needs a root";
  let s =
    { s_doc = doc; s_trace = Trace.create (); s_policy = policy;
      s_next_time = 1; s_accepted = None }
  in
  (* The root is always a resource (Definition 1). *)
  if Tree.uri doc (Tree.root doc) = None then
    Tree.set_uri doc (Tree.root doc) (Tree.fresh_uri doc);
  check_unique_uris doc;
  Trace.add_call s.s_trace { Trace.service = "Source"; time = 0 };
  label_resources s ~now:0 (Tree.resources doc);
  s

type step_result =
  | Committed of { delta : delta; attempts : int }
  | Step_failed of { reason : string; exn : exn; attempts : int }
      (* the timestamp is burned: the document is bit-identical to the
         previous commit and the strategies will never see this call *)

let step ?(on_step = fun _ _ _ _ -> ()) s service =
  let doc = s.s_doc and trace = s.s_trace and policy = s.s_policy in
  let time = s.s_next_time in
  s.s_next_time <- time + 1;
  let name = Service.name service in
  Log.debug (fun m -> m "call %d: %s" time name);
  let call = { Trace.service = name; time } in
  let before = Doc_state.at doc (time - 1) in
  let from = s.s_accepted in
  s.s_accepted <- None;
  (* One supervised attempt: run the service, verify budgets, assign
     identities, and check this call's URIs against everything already
     committed.  Raises on any violation; nothing here mutates the
     trace, so a raise rolls back to [ck] with no bookkeeping to
     undo. *)
  let attempt_once ck =
        let t0 = Sys.time () and old_size = Tree.size doc in
        let promoted, accepted =
          match service.Service.impl with
          | Service.Inproc f -> run_inproc doc ck f
          | Service.Blackbox f ->
            run_blackbox ?from doc
              (Xml_text.of_string (f (Printer.to_string doc)))
          | Service.Blackbox_doc f -> run_blackbox ?from doc (f ())
        in
        let new_nodes =
          List.init (Tree.size doc - old_size) (fun i -> old_size + i)
        in
        (match policy.max_call_s with
         | Some limit when Sys.time () -. t0 > limit ->
           raise
             (Budget_exceeded
                (Printf.sprintf "call ran %.3fs, budget %.3fs"
                   (Sys.time () -. t0) limit))
         | _ -> ());
        (match policy.max_new_nodes with
         | Some limit when List.length new_nodes > limit ->
           raise
             (Budget_exceeded
                (Printf.sprintf "call appended %d nodes, budget %d"
                   (List.length new_nodes) limit))
         | _ -> ());
        List.iter (fun n -> Tree.set_created doc n time) new_nodes;
        (* Give every added fragment root an identity: it is a new resource
           of this call. *)
        List.iter
          (fun n ->
            let p = Tree.parent doc n in
            let is_fragment_root = p = Tree.no_node || Tree.created doc p < time in
            if is_fragment_root && Tree.is_element doc n && Tree.uri doc n = None
            then Tree.set_uri doc n (Tree.fresh_uri doc))
          new_nodes;
        (* Collision check at commit boundary: each URI this call gave
           (to a new node or by promotion) must be owned by its node,
           i.e. new to the document and not repeated within the call. *)
        List.iter (check_owns_uri doc) new_nodes;
        List.iter (check_owns_uri doc) promoted;
        (new_nodes, promoted, accepted)
      in
  let rec supervise attempt =
    let bo = backoff_for policy attempt in
    T.incr c_attempts;
    T.add c_backoff_ms (int_of_float bo);
    let ck = Tree.checkpoint doc in
    match attempt_once ck with
    | (new_nodes, promoted, accepted) ->
      (* Committed: close the checkpoint before labeling, whose writes
         then go unlogged. *)
      Tree.commit doc ck;
      s.s_accepted <- accepted;
      Trace.record_attempt trace
        { Trace.a_service = name; a_time = time; a_attempt = attempt;
          a_ok = true; a_reason = ""; a_backoff_ms = bo };
      `Committed (new_nodes, promoted, attempt)
    | exception e ->
      let reason = failure_reason e in
      Tree.restore doc ck;
      Log.debug (fun m ->
          m "call %d (%s) attempt %d failed: %s" time name attempt reason);
      T.incr c_attempts_failed;
      Trace.record_attempt trace
        { Trace.a_service = name; a_time = time; a_attempt = attempt;
          a_ok = false; a_reason = reason; a_backoff_ms = bo };
      if attempt <= policy.retries then supervise (attempt + 1)
      else `Failed (reason, e)
  in
  let span_t0 = if T.spans_on () then T.now_us () else 0. in
  let emit_call_span outcome attempts =
    if T.spans_on () then
      T.emit_span ~cat:"orchestrator"
        ~args:
          [ ("time", string_of_int time); ("outcome", outcome);
            ("attempts", string_of_int attempts) ]
        ~name:("call:" ^ name) ~worker:(T.current_worker ())
        ~t0:span_t0 ~t1:(T.now_us ()) ()
  in
  match supervise 1 with
  | `Committed (new_nodes, promoted, attempts) ->
    emit_call_span "committed" attempts;
    T.incr c_committed;
    if attempts > 1 then T.incr c_retried;
    (* Commit: from here on nothing can fail, so a later call's
       rollback never has trace bookkeeping to undo. *)
    Trace.add_call trace call;
    Trace.record_outcome trace call
      (if attempts > 1 then Trace.Retried (attempts - 1) else Trace.Ok);
    let delta = { new_nodes; promoted } in
    label_resources s ~now:time (delta_resources doc delta);
    let after = Doc_state.at doc time in
    on_step call before after delta;
    Committed { delta; attempts }
  | `Failed (reason, e) ->
    emit_call_span "failed" (policy.retries + 1);
    T.incr c_failed;
    (* The timestamp is burned: the document is bit-identical to the
       previous commit and the strategies will never see this call. *)
    Trace.record_outcome trace call (Trace.Failed reason);
    Step_failed { reason; exn = e; attempts = policy.retries + 1 }

let execute ?(policy = default_policy) ?(on_step = fun _ _ _ _ -> ()) doc
    services =
  let s = start ~policy doc in
  List.iter
    (fun service ->
      match step ~on_step s service with
      | Committed _ -> ()
      | Step_failed { reason; exn; attempts } -> (
        match policy.on_failure with
        | `Propagate -> raise exn
        | `Skip ->
          Log.info (fun m ->
              m "call %d (%s) failed after %d attempt(s): %s — skipped"
                (next_time s - 1) (Service.name service) attempts reason)))
    services;
  s.s_trace
