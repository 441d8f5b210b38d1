(* Correctness checks on the daemon phase's replies.  Each check is one
   attempted operation; a failed check counts as a failed one. *)

module J = Weblab_server.Json
open Weblab_prov

type tally = { mutable attempted : int; mutable failed : int; mutable why : string list }

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.why < 5 then t.why <- what :: t.why
  end

let turtle_of_close (s : Gen.session) (r : Drive.replies) =
  let last = Array.length s.Gen.requests - 1 in
  J.str_member "turtle" (Drive.parse r.Drive.reply.(last))

(* The offline run the daemon's session must reproduce: same document,
   same calls, the daemon's default backend, straight through the
   engine. *)
let offline_turtle (ctx : Weblab_server.Protocol.ctx) (s : Gen.session) =
  let doc = Weblab_services.Workload.make_document ~units:s.Gen.units ~seed:s.Gen.doc_seed () in
  let services = Weblab_services.Workload.chain_pipeline Gen.infer_calls in
  let exec, g =
    Engine.run_with_strategy ~jobs:1 ctx.Weblab_server.Protocol.default_backend doc
      services ctx.Weblab_server.Protocol.rulebook
  in
  Engine.to_turtle ~trace:exec.Engine.trace g

let run (p : Gen.plan) (o : Drive.outcome) =
  let t = { attempted = 0; failed = 0; why = [] } in
  let ctx = lazy (Weblab_server.Protocol.make_ctx ()) in
  Array.iteri
    (fun i (s : Gen.session) ->
      let r = o.Drive.o_replies.(i) in
      Array.iteri
        (fun j rep ->
          check t (Drive.acked rep)
            (Printf.sprintf "%s request %d: %s" s.Gen.sid j
               (String.sub rep 0 (min 200 (String.length rep)))))
        r.Drive.reply;
      let close_turtle = turtle_of_close s r in
      match p.Gen.workload with
      | Gen.Persist_chain ->
        check t
          (close_turtle <> None
          && close_turtle = List.assoc_opt s.Gen.sid o.Drive.o_restored_turtle)
          (s.Gen.sid ^ ": restored turtle differs from close")
      | Gen.Infer_query ->
        check t
          (close_turtle = Some (offline_turtle (Lazy.force ctx) s))
          (s.Gen.sid ^ ": close turtle differs from the offline run")
      | Gen.Xml_ingest ->
        let stats =
          Array.to_list s.Gen.requests
          |> List.mapi (fun j (q : Gen.request) -> (q.Gen.kind, r.Drive.reply.(j)))
          |> List.assoc Gen.Stats
        in
        check t
          (J.int_member "doc_nodes" (Drive.parse stats) = Some s.Gen.doc_nodes)
          (s.Gen.sid ^ ": doc_nodes differs from the generator's count"))
    p.Gen.sessions;
  t
