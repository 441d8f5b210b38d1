(* The daemon phase: boot [serve] as a separate process and drive it from
   this process over one TCP connection in a closed loop — each request
   waits for the previous reply, as a workflow client does. *)

module J = Weblab_server.Json

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let disconnect c = Unix.close c.fd

let rpc_line c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let rpc c (r : Gen.request) =
  Array.iter (output_string c.oc) r.Gen.pieces;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

(* One session's replies and client-observed latencies, request by
   request, and, when asked for, the time the request codec takes on
   each request and its reply. *)
type replies = { lat_s : float array; reply : string array; codec_s : float array }

(* The codec is timed here, right after each reply and outside its
   latency, so it runs at the host speed the request just saw. *)
let run_session ?(codec = false) c (s : Gen.session) =
  let n = Array.length s.Gen.requests in
  let lat_s = Array.make n 0. and reply = Array.make n "" and codec_s = Array.make n 0. in
  Array.iteri
    (fun i r ->
      let t0 = Unix.gettimeofday () in
      let rep = rpc c r in
      lat_s.(i) <- Unix.gettimeofday () -. t0;
      reply.(i) <- rep;
      if codec then begin
        let line = Gen.request_line r and resp = J.parse rep in
        let t0 = Unix.gettimeofday () in
        ignore (J.parse line);
        ignore (J.to_string resp);
        codec_s.(i) <- Unix.gettimeofday () -. t0
      end)
    s.Gen.requests;
  { lat_s; reply; codec_s }

(* Cheap acknowledgement test for the timed loop's output: replies echo
   no id, so an acknowledged one starts with the ok member. *)
let acked rep = String.starts_with ~prefix:"{\"ok\":true" rep

let parse rep = match J.parse_opt rep with Ok v -> v | Error _ -> J.Null

type outcome = {
  o_setup_s : float array;
  o_wall_s : float;
  o_cpu_s : float;
  o_rss_mb : float;
  o_steal_s : float;
  o_replies : replies array;  (** per timed session *)
  o_restore_s : float array;  (** persist-chain restarts *)
  o_restored_turtle : (string * string) list;  (** sid, turtle after restart *)
  o_handled_s : float;
      (** with [~profile]: the daemon's own time in [Protocol.handle] over
          the timed phase, from its per-verb histograms (and the replies
          carry codec times); 0 otherwise *)
}

(* Sum of the daemon's per-verb handling time, from the [metrics] verb
   (the verb's own histogram excluded). *)
let handled_us c =
  let rep = parse (rpc_line c "{\"verb\":\"metrics\"}") in
  match J.member "histograms" rep with
  | Some (J.Obj hs) ->
    List.fold_left
      (fun a (name, h) ->
        if String.starts_with ~prefix:"serve.verb." name && name <> "serve.verb.metrics"
        then a + Option.value ~default:0 (J.int_member "sum_us" h)
        else a)
      0 hs
  | _ -> 0

let setup_spawns = 21
let restarts = 3

let run ?(profile = false) ~serve ~work_dir (p : Gen.plan) =
  let log = Filename.concat work_dir "serve.log" in
  let data_dir =
    match p.Gen.workload with
    | Gen.Persist_chain -> Some (Filename.concat work_dir "data")
    | Gen.Infer_query | Gen.Xml_ingest -> None
  in
  let setup_s = Array.make setup_spawns 0. in
  let daemon = ref None in
  for i = 0 to setup_spawns - 1 do
    Option.iter Proc.kill !daemon;
    let d, dt = Proc.spawn ~profile ~serve ~log ?data_dir () in
    setup_s.(i) <- dt;
    daemon := Some d
  done;
  let d = Option.get !daemon in
  Fun.protect
    ~finally:(fun () -> Proc.kill d)
    (fun () ->
      let c = connect d.Proc.port in
      ignore (run_session c p.Gen.warmup);
      let handled0 = if profile then handled_us c else 0 in
      let steal0 = Proc.steal_s () in
      let cpu0 = Proc.cpu_s d.Proc.pid in
      let t0 = Unix.gettimeofday () in
      let replies = Array.map (run_session ~codec:profile c) p.Gen.sessions in
      let wall = Unix.gettimeofday () -. t0 in
      let cpu = Proc.cpu_s d.Proc.pid -. cpu0 in
      let steal = Proc.steal_s () -. steal0 in
      let rss = Proc.peak_rss_mb d.Proc.pid in
      let handled_s =
        if profile then float_of_int (handled_us c - handled0) /. 1e6 else 0.
      in
      disconnect c;
      (* Every reply has been read, so every commit was acknowledged:
         the durability point the restart checks. *)
      Proc.kill d;
      let restore_s, restored =
        match data_dir with
        | None -> ([||], [])
        | Some dir ->
          let restore_s = Array.make restarts 0. in
          let restored = ref [] in
          for i = 0 to restarts - 1 do
            let d, dt = Proc.spawn ~serve ~log ~data_dir:dir () in
            restore_s.(i) <- dt;
            Fun.protect
              ~finally:(fun () -> Proc.kill d)
              (fun () ->
                if i = restarts - 1 then begin
                  let c = connect d.Proc.port in
                  restored :=
                    Array.to_list p.Gen.sessions
                    |> List.map (fun (s : Gen.session) ->
                           let rep =
                             rpc_line c
                               (J.to_string
                                  (J.Obj
                                     [ ("verb", J.Str "query");
                                       ("session", J.Str s.Gen.sid);
                                       ("kind", J.Str "turtle") ]))
                           in
                           ( s.Gen.sid,
                             Option.value ~default:""
                               (J.str_member "turtle" (parse rep)) ));
                  disconnect c
                end)
          done;
          (restore_s, !restored)
      in
      { o_setup_s = setup_s; o_wall_s = wall; o_cpu_s = cpu; o_rss_mb = rss;
        o_steal_s = steal; o_replies = replies; o_restore_s = restore_s;
        o_restored_turtle = restored; o_handled_s = handled_s })
