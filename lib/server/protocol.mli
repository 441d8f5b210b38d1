(** The serving protocol: newline-delimited JSON request/response over a
    {!Registry.t}.

    One request per line, one response per line.  Every request is an
    object with a ["verb"] and an optional ["id"] the response echoes.
    Responses carry ["ok": true] plus verb-specific fields, or
    ["ok": false] with an ["error"] code and a human ["message"].

    {v
    verb    fields                                  reply
    open    scenario?|empty, units?, seed?,         session, backend,
            persist?, budgets?{retries,               next_time, persisted
            backoff_ms, max_new_nodes,
            max_call_s, max_commits}
    commit  session, service | xml (+name?)        time, attempts,
                                                     new_nodes, promoted
    query   session, kind=why|impact (uri),        uris | columns+rows |
            kind=sparql (query), kind=turtle         turtle
    stats   [session]                              live, max_sessions,
                                                     restored, sessions
                                                     | per-session
    metrics [trace]                                uptime_us, level,
                                                     counters, gauges,
                                                     histograms, spans |
                                                     trace, spans
    close   session, turtle?                       commits, failed, links
                                                     [, turtle]
    v}

    Observability: when the recorder is on, every request draws a
    request id (the client's ["id"] if it is a string or integer, a
    generated one otherwise), runs under it — so every span emitted
    while handling the request is stamped [("req", rid)] — and lands its
    wall time in the per-verb histogram [serve.verb.<verb>].  [metrics]
    returns the {!Weblab_obs.Metrics.snapshot} as JSON (histograms with
    count/sum/max and p50/p90/p99); [{"verb":"metrics","trace":RID}]
    returns the buffered spans stamped with [RID].  A context built with
    a slow-query log appends one JSON line per request at or over the
    threshold.  With the recorder [Off] a request costs one atomic load
    beyond the bare dispatch.

    Sessions are served by Fused ({!Session}); unknown request fields,
    such as an older client's [backend] or [jobs], are ignored.

    Error codes: [parse_error], [bad_request], [unknown_session],
    [unknown_service], [admission_rejected],
    [already_open], [budget_exceeded], [commit_failed], [query_error],
    [session_closed], [read_only], [internal_error].

    Failure containment: [commit_failed] and [budget_exceeded] fail the
    {e call} — the session they addressed stays open and queryable.
    [internal_error] is the backstop for unexpected exceptions; it too is
    confined to the request that raised it.

    Persistence: with a [data_dir], sessions write a per-commit WAL
    (["<percent-encoded-id>.wal"]) and {!restore_sessions} replays every
    log at boot into read-only sessions whose Turtle export is
    byte-identical to what the live sessions last served; committing to
    one yields [read_only]. *)

type slow_log = {
  sl_oc : out_channel;
  sl_lock : Mutex.t;  (** the channel is shared by connection threads *)
  sl_threshold_us : float;
}

type ctx = {
  registry : Registry.t;
  rulebook : Weblab_prov.Strategy.rulebook;
      (** shared, read-only: every session's backend init gets it *)
  default_backend : Weblab_prov.Strategy.kind;
      (** always [`Fused]; kept for the benchmark's driver *)
  data_dir : string option;
      (** when set, sessions persist a WAL under it (request field
          ["persist": false] opts a session out) *)
  slow : slow_log option;
      (** when set, requests at or over the threshold append a JSON line
          (see {!Weblab_obs.Sinks.slow_query_line}) *)
}

val make_ctx :
  ?shards:int ->
  ?max_sessions:int ->
  ?data_dir:string ->
  ?slow_log_path:string ->
  ?slow_ms:float ->
  unit ->
  ctx
(** Builds the catalog rulebook once.
    [slow_log_path] opens (append, create) the slow-query log;
    [slow_ms] is the threshold in milliseconds (default 100). *)

val wal_file : string -> string -> string
(** [wal_file data_dir sid] — the WAL path for a session id (filename is
    the percent-encoded id + [".wal"]). *)

val restore_sessions : ctx -> (string * Weblab_rdf.Wal.replay_stats) list
(** Replay every ["*.wal"] under the data dir into a read-only session
    registered under its decoded id; call once at boot, before the
    listener accepts.  No data dir, or none configured: [[]]. *)

val handle : ctx -> Json.t -> Json.t
(** Dispatch one parsed request.  Total: protocol and session errors come
    back as [ok:false] responses, never as exceptions. *)

val handle_line : ctx -> string -> string
(** Parse, dispatch, print — the connection loop's whole body (and the
    unit tests' entry point).  The result never contains a newline. *)
