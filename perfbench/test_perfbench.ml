(* The benchmark's own tests: generated inputs are a function of the
   seed, the result schema survives encode/decode, and the traced run's
   exact counts repeat. *)

open Perfbench
module P = Weblab_server.Protocol

let check_bool msg expected actual = Alcotest.(check bool) msg expected actual

let plan w seed = Gen.plan w ~seed ~blocks:1

let test_same_seed w () =
  check_bool "byte-identical stream" true
    (String.equal (Gen.stream (plan w 7)) (Gen.stream (plan w 7)))

(* The documents a session works on: the XML it sends, or the document
   the daemon builds from the open request's units and seed. *)
let documents (p : Gen.plan) =
  Array.to_list p.Gen.sessions
  |> List.map (fun (s : Gen.session) ->
         if s.Gen.units = 0 then Gen.request_line s.Gen.requests.(1)
         else
           Weblab_xml.Printer.to_string
             (Weblab_services.Workload.make_document ~units:s.Gen.units
                ~seed:s.Gen.doc_seed ()))

let test_other_seed w () =
  let a = documents (plan w 7) and b = documents (plan w 8) in
  let differ = List.filter (fun d -> d) (List.map2 (fun x y -> not (String.equal x y)) a b) in
  check_bool "most sessions' documents differ" true (2 * List.length differ > List.length a)

(* ----- the result schema roundtrips ----- *)

let metric_gen =
  QCheck.Gen.(
    let name = string_size ~gen:(oneofl [ 'a'; 'z'; '_'; '.'; '-'; '0' ]) (1 -- 12) in
    let value = oneof [ float_bound_inclusive 1e6; map Float.of_int small_signed_int; return 0.1 ] in
    let unit = oneofl [ "ms"; "s"; "1/s"; "MB"; "MB/s"; "count"; "ratio"; "B" ] in
    triple name value unit)

let result_gen =
  QCheck.Gen.(
    map
      (fun (correct, attempted, failed, ms) ->
        { Schema.correct; attempted; failed;
          metrics = List.map (fun (n, value, unit) -> (n, { Schema.value; unit })) ms })
      (quad bool nat nat (list_size (0 -- 30) metric_gen)))

let roundtrip =
  QCheck.Test.make ~count:1000 ~name:"of_string (to_string r) = Some r"
    (QCheck.make ~print:Schema.to_string result_gen)
    (fun r -> Schema.of_string (Schema.to_string r) = Some r)

(* ----- exact counts repeat -----

   The daemon's replies are stood in for by the same protocol handler
   in-process, so the test needs no daemon process. *)

let in_process (p : Gen.plan) ~work_dir =
  let ctx =
    if p.Gen.workload = Gen.Persist_chain then
      P.make_ctx ~data_dir:(Filename.concat work_dir "daemon") ()
    else P.make_ctx ()
  in
  Option.iter (fun d -> Unix.mkdir d 0o755) ctx.P.data_dir;
  let replies =
    Array.map
      (fun (s : Gen.session) ->
        let n = Array.length s.Gen.requests in
        let lat_s = Array.make n 0. and reply = Array.make n "" in
        Array.iteri
          (fun j r ->
            let t0 = Unix.gettimeofday () in
            reply.(j) <- P.handle_line ctx (Gen.request_line r);
            lat_s.(j) <- Unix.gettimeofday () -. t0)
          s.Gen.requests;
        { Drive.lat_s; reply; codec_s = Array.make n 0. })
      p.Gen.sessions
  in
  { Drive.o_setup_s = [||]; o_wall_s = 0.; o_cpu_s = 0.;
    o_rss_mb = 0.; o_steal_s = 0.; o_replies = replies; o_restore_s = [||];
    o_restored_turtle = []; o_handled_s = 0. }

let exact = [ "wal.bytes_per_commit"; "prov_export.triples_built"; "orchestrator.new_nodes" ]

let counts w =
  let p = plan w 3 in
  let p = { p with Gen.sessions = [| p.Gen.sessions.(0) |] } in
  let work_dir = Printf.sprintf "perfbench-test-%s-%d" (Gen.workload_name w) (Unix.getpid ()) in
  Run.rm_rf work_dir;
  Unix.mkdir work_dir 0o755;
  Fun.protect
    ~finally:(fun () -> Run.rm_rf work_dir)
    (fun () ->
      let o = in_process p ~work_dir in
      let t = Traced.run ~work_dir p o in
      Alcotest.(check (list string)) "no failed checks" [] t.Traced.why;
      List.map (fun k -> (k, (List.assoc k t.Traced.metrics).Schema.value)) exact)

let test_exact_counts w () =
  let a = counts w and b = counts w in
  List.iter
    (fun (k, v) ->
      check_bool (k ^ " is positive") true (v > 0.);
      Alcotest.(check (float 0.)) (k ^ " repeats") v (List.assoc k b))
    a

let per_workload name f =
  List.map
    (fun w -> Alcotest.test_case (Gen.workload_name w) `Quick (f w))
    Gen.workloads
  |> fun cases -> (name, cases)

let () =
  Alcotest.run "perfbench"
    [ per_workload "same seed, same stream" test_same_seed;
      per_workload "other seed, other documents" test_other_seed;
      ("schema", [ QCheck_alcotest.to_alcotest roundtrip ]);
      per_workload "exact counts repeat" test_exact_counts ]
