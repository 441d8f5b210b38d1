(* weblab-serve: the provenance serving daemon.

   A long-lived process hosting many concurrent workflow sessions, each
   an orchestrator + the Fused engine over a live document; clients speak
   newline-delimited JSON over TCP (see Protocol).  Try it with nc:

     $ weblab-serve --port 8321 &
     $ printf '%s\n' '{"id":1,"verb":"open"}' | nc 127.0.0.1 8321 *)

open Cmdliner
open Weblab_server

let host_arg =
  Arg.(value & opt string "127.0.0.1"
       & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")

let port_arg =
  Arg.(value & opt int 8321
       & info [ "port"; "p" ] ~docv:"PORT"
           ~doc:"TCP port ($(b,0) binds an ephemeral port and prints it).")

let max_sessions_arg =
  Arg.(value & opt int 1024
       & info [ "max-sessions" ] ~docv:"N"
           ~doc:"Admission control: reject $(b,open) beyond $(docv) live \
                 sessions.")

let shards_arg =
  Arg.(value & opt int 16
       & info [ "shards" ] ~docv:"N"
           ~doc:"Session-registry shards (per-shard locking).")

let profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Record telemetry (counters, gauges, per-verb latency \
                 histograms) and print a summary on SIGINT/SIGTERM \
                 shutdown.")

let trace_arg =
  Arg.(value & flag
       & info [ "trace" ]
           ~doc:"Record spans too (implies $(b,--profile)): every request \
                 runs under a request id that stamps its spans, served \
                 back by the $(b,metrics) verb's $(b,trace) form.  Span \
                 retention is a bounded ring (see \
                 $(b,--trace-retention)); evictions are counted, never \
                 silent.")

let trace_retention_arg =
  Arg.(value & opt int 4096
       & info [ "trace-retention" ] ~docv:"N"
           ~doc:"Ring capacity for retained spans under $(b,--trace): the \
                 newest $(docv) spans survive, older ones are dropped and \
                 tallied.")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Periodically rewrite $(docv) with the Prometheus text \
                 exposition of the live metrics (atomic rename per dump; \
                 implies $(b,--profile)).  A final dump runs at \
                 shutdown.")

let metrics_every_arg =
  Arg.(value & opt float 5.
       & info [ "metrics-every" ] ~docv:"SECS"
           ~doc:"Seconds between $(b,--metrics-out) dumps (default 5).")

let slow_log_arg =
  Arg.(value & opt (some string) None
       & info [ "slow-log" ] ~docv:"FILE"
           ~doc:"Append one JSON line per request at or over the \
                 $(b,--slow-ms) threshold: verb, session, request id, \
                 duration, outcome, result cardinalities (implies \
                 $(b,--profile)).")

let slow_ms_arg =
  Arg.(value & opt float 100.
       & info [ "slow-ms" ] ~docv:"MS"
           ~doc:"Slow-query threshold in milliseconds (default 100).")

let data_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "data-dir" ] ~docv:"DIR"
           ~doc:"Persist sessions: append a per-commit write-ahead log \
                 under $(docv) (created if missing) and restore every \
                 logged session read-only at boot.")

let report_counters () =
  let cs = Weblab_obs.Telemetry.counters () in
  if cs <> [] then begin
    prerr_endline "--- counters ---";
    List.iter (fun (n, v) -> Printf.eprintf "%-40s %d\n" n v) cs;
    flush stderr
  end

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* One exposition dump: write-to-tmp + rename, so a scraper reading the
   file never sees a torn write. *)
let dump_metrics path =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Weblab_obs.Sinks.exposition ()));
  Sys.rename tmp path

let start_metrics_dumper path every =
  let every = if every <= 0. then 5. else every in
  ignore
    (Thread.create
       (fun () ->
         while true do
           Thread.delay every;
           try dump_metrics path with Sys_error _ -> ()
         done)
       ())

(* The shutdown signals.  They are blocked before the daemon creates any
   thread, so every thread inherits the mask and the signals stay pending
   until the main thread collects them with [Thread.wait_signal]: an OCaml
   signal handler would never run while every thread is blocked in a
   system call (accept, read), which is exactly an idle daemon. *)
let stop_signals = [ Sys.sigint; Sys.sigterm ]

let main host port max_sessions shards profile trace trace_retention
    metrics_out metrics_every slow_log slow_ms data_dir =
  ignore (Thread.sigmask Unix.SIG_BLOCK stop_signals);
  let module T = Weblab_obs.Telemetry in
  (* Any metrics consumer needs the recorder on; spans only under
     --trace, and then behind a bounded ring — a daemon must not grow an
     unbounded span list. *)
  if profile || Option.is_some metrics_out || Option.is_some slow_log then
    T.set_level T.Counters;
  if trace then begin
    T.set_level T.Full;
    T.set_retention (Some (max 1 trace_retention))
  end;
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Info);
  Option.iter mkdir_p data_dir;
  let ctx =
    Protocol.make_ctx ~shards ~max_sessions ?data_dir ?slow_log_path:slow_log
      ~slow_ms ()
  in
  (* Warm restart: replay every WAL before the listener accepts, so no
     request can race a half-restored registry. *)
  let restored = Protocol.restore_sessions ctx in
  List.iter
    (fun (sid, rp) ->
      Logs.info (fun m ->
          m "restored session %S: %d commits, %d triples%s" sid
            rp.Weblab_rdf.Wal.rp_commits rp.Weblab_rdf.Wal.rp_triples
            (if rp.Weblab_rdf.Wal.rp_torn then " (torn tail dropped)" else "")))
    restored;
  let srv = Server.start ~host ~port ctx in
  Option.iter
    (fun path ->
      dump_metrics path;
      start_metrics_dumper path metrics_every)
    metrics_out;
  (* The readiness line CI and scripts wait for — stdout, flushed. *)
  if restored <> [] then
    Printf.printf "weblab-serve restored %d session(s)\n" (List.length restored);
  Printf.printf "weblab-serve listening on %s:%d\n%!" host (Server.port srv);
  ignore (Thread.wait_signal stop_signals);
  Server.stop srv;
  Option.iter (fun path -> try dump_metrics path with Sys_error _ -> ())
    metrics_out;
  if profile then report_counters ();
  exit 0

let cmd =
  Cmd.v
    (Cmd.info "weblab-serve"
       ~doc:"Provenance serving daemon: concurrent workflow sessions with \
             live why/impact/SPARQL queries over NDJSON/TCP")
    Term.(const main $ host_arg $ port_arg $ max_sessions_arg $ shards_arg
          $ profile_arg $ trace_arg $ trace_retention_arg
          $ metrics_out_arg $ metrics_every_arg $ slow_log_arg $ slow_ms_arg
          $ data_dir_arg)

let () = exit (Cmd.eval cmd)
