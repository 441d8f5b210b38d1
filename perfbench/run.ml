(* One benchmark run: generate the plan, drive the daemon, check its
   replies, and report end-to-end metrics (or, traced, per-layer ones). *)

module J = Weblab_server.Json

open Stat

(* The commit tail is reported at p95: the highest percentile with at
   least ten samples beyond it on every workload at the benchmark's run
   length (infer-query, the sparsest, makes 225 commits in 30 s). *)
let tail_p = 0.95

(* Client-observed latencies, in ms, of the timed requests whose kind
   satisfies [keep]. *)
let latencies (p : Gen.plan) (o : Drive.outcome) keep =
  let acc = ref [] in
  Array.iteri
    (fun i (s : Gen.session) ->
      Array.iteri
        (fun j (r : Gen.request) ->
          if keep r.Gen.kind then acc := (o.Drive.o_replies.(i).Drive.lat_s.(j) *. 1000.) :: !acc)
        s.Gen.requests)
    p.Gen.sessions;
  sorted (Array.of_list !acc)

(* Acknowledged requests of the kinds [keep], and the XML bytes they
   carried. *)
let acknowledged (p : Gen.plan) (o : Drive.outcome) keep =
  let n = ref 0 and bytes = ref 0 in
  Array.iteri
    (fun i (s : Gen.session) ->
      Array.iteri
        (fun j (r : Gen.request) ->
          if keep r.Gen.kind && Drive.acked o.Drive.o_replies.(i).Drive.reply.(j) then begin
            incr n;
            bytes := !bytes + r.Gen.xml_bytes
          end)
        s.Gen.requests)
    p.Gen.sessions;
  (!n, !bytes)

let metric name unit value = (name, { Schema.value; unit })

let is_commit k = k = Gen.Commit
let is_query = function Gen.Why | Gen.Impact | Gen.Sparql -> true | _ -> false

let end_to_end (p : Gen.plan) (o : Drive.outcome) =
  let commits = latencies p o is_commit in
  let rate keep = float_of_int (fst (acknowledged p o keep)) /. o.Drive.o_wall_s in
  [ metric "setup_s" "s" (median o.Drive.o_setup_s);
    metric "commits_per_s" "1/s" (rate is_commit);
    metric "requests_per_s" "1/s" (rate (fun _ -> true));
    metric "commit_p50_ms" "ms" (quantile commits 0.5);
    metric "commit_p95_ms" "ms" (quantile commits tail_p);
    metric "daemon_cpu_s" "s" o.Drive.o_cpu_s;
    metric "peak_rss_mb" "MB" o.Drive.o_rss_mb ]

(* Figures that only some workloads exercise, reported beside the result
   on those workloads alone. *)
let workload_figures (p : Gen.plan) (o : Drive.outcome) =
  let num name v = (name, J.Float v) in
  match p.Gen.workload with
  | Gen.Persist_chain -> [ num "restore_s" (median o.Drive.o_restore_s) ]
  | Gen.Xml_ingest ->
    let _, bytes = acknowledged p o is_commit in
    [ num "ingest_mb_s" (float_of_int bytes /. 1e6 /. o.Drive.o_wall_s) ]
  | Gen.Infer_query ->
    [ num "why_p50_ms" (quantile (latencies p o (( = ) Gen.Why)) 0.5);
      num "sparql_p50_ms" (quantile (latencies p o (( = ) Gen.Sparql)) 0.5);
      num "query_p95_ms" (quantile (latencies p o is_query) tail_p) ]

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let run ~workload ~seed ~seconds ~trace ~serve ~work_dir ~rev =
  rm_rf work_dir;
  Unix.mkdir work_dir 0o755;
  Fun.protect
    ~finally:(fun () -> rm_rf work_dir)
    (fun () ->
      let plan = Gen.plan workload ~seed ~blocks:(Gen.blocks workload ~seconds) in
      let o = Drive.run ~profile:trace ~serve ~work_dir plan in
      let checks = Checks.run plan o in
      let commits = latencies plan o is_commit in
      let metrics, extra_failed, extra_attempted, extra_why =
        if trace then begin
          let t = Traced.run ~work_dir plan o in
          (t.Traced.metrics, t.Traced.failed, t.Traced.attempted, t.Traced.why)
        end
        else (end_to_end plan o, 0, 0, [])
      in
      let failed = checks.Checks.failed + extra_failed in
      let diag =
        J.Obj
          ([ ("workload", J.Str (Gen.workload_name workload)); ("seed", J.Int seed);
             ("seconds", J.Int seconds); ("sessions", J.Int (Array.length plan.Gen.sessions));
             ("cpus", J.Int (Proc.cpus ())); ("rev", J.Str rev);
             ("steal_s", J.Float o.Drive.o_steal_s); ("wall_s", J.Float o.Drive.o_wall_s);
             ("commit_samples", J.Int (Array.length commits));
             ("commit_tail", J.Str "p95");
             ("commit_samples_beyond_tail",
              J.Int (Array.length commits - int_of_float (Float.ceil (tail_p *. float_of_int (Array.length commits))))) ]
          @ workload_figures plan o
          @ [ ("failures",
                J.List (List.map (fun s -> J.Str s) (checks.Checks.why @ extra_why))) ])
      in
      ( diag,
        { Schema.correct = failed = 0;
          attempted = checks.Checks.attempted + extra_attempted;
          failed; metrics } ))
