(* Workflow execution traces: the Source table of Figure 2.

   A trace records, for every labeled resource of the final document, the
   service call (service name, timestamp) that produced it.  Together with
   the final document it {e is} the workflow execution trace from which all
   provenance is inferred (§2). *)

open Weblab_xml

type call = {
  service : string;
  time : int;
}

let call_id c = Printf.sprintf "c%d" c.time

type entry = {
  uri : string;
  node : Tree.node;
  call : call;
}

(* Outcome of a call's supervision (§ Failure model of DESIGN.md).  [Ok]
   and [Retried _] describe committed calls; [Failed _] calls burned
   their timestamp but left no mark on the document — the orchestrator
   rolled their appends back. *)
type outcome =
  | Ok
  | Failed of string  (* the reason of the last attempt *)
  | Retried of int  (* committed after this many failed attempts *)

type attempt = {
  a_service : string;
  a_time : int;
  a_attempt : int;  (* 1-based *)
  a_ok : bool;
  a_reason : string;  (* "" when [a_ok] *)
  a_backoff_ms : float;  (* simulated backoff charged before this attempt *)
}

type t = {
  entries : entry Vec.t;  (* first-insertion order, one per URI *)
  steps : int Vec.t;  (* the step each entry was recorded at *)
  by_uri : (string, int) Hashtbl.t;  (* URI -> its entry's position *)
  mutable calls_rev : call list;
  mutable failed_rev : call list;
  mutable attempts_rev : attempt list;
  attempt_counts : (int, int) Hashtbl.t;  (* timestamp → attempts *)
  outcomes : (int, call * outcome) Hashtbl.t;  (* timestamp → outcome *)
  mutable last_time : int;
}

let no_entry =
  { uri = ""; node = Tree.no_node; call = { service = ""; time = 0 } }

let create () =
  { entries = Vec.create ~dummy:no_entry; steps = Vec.create ~dummy:0;
    by_uri = Hashtbl.create 64;
    calls_rev = []; failed_rev = []; attempts_rev = [];
    attempt_counts = Hashtbl.create 16; outcomes = Hashtbl.create 16;
    last_time = -1 }

let add_call t call =
  t.calls_rev <- call :: t.calls_rev;
  t.last_time <- max t.last_time call.time;
  if not (Hashtbl.mem t.outcomes call.time) then
    Hashtbl.replace t.outcomes call.time (call, Ok)

let add_entry ?step t entry =
  match Hashtbl.find_opt t.by_uri entry.uri with
  | Some i -> Vec.set t.entries i entry
  | None ->
    Hashtbl.add t.by_uri entry.uri (Vec.length t.entries);
    Vec.push t.entries entry;
    Vec.push t.steps (Option.value step ~default:entry.call.time)

let attempt_count t time =
  match Hashtbl.find_opt t.attempt_counts time with Some n -> n | None -> 0

let record_attempt t a =
  t.attempts_rev <- a :: t.attempts_rev;
  Hashtbl.replace t.attempt_counts a.a_time (attempt_count t a.a_time + 1)

let record_outcome t call outcome =
  Hashtbl.replace t.outcomes call.time (call, outcome);
  t.last_time <- max t.last_time call.time;
  match outcome with
  | Failed _ -> t.failed_rev <- call :: t.failed_rev
  | Ok | Retried _ -> ()

let calls t = List.rev t.calls_rev

let entries t =
  Vec.to_list t.entries
  |> List.sort (fun a b ->
         let c = compare a.call.time b.call.time in
         if c <> 0 then c else compare a.node b.node)

let failed_calls t = List.rev t.failed_rev

let attempts t = List.rev t.attempts_rev

let outcome_at t time = Option.map snd (Hashtbl.find_opt t.outcomes time)

let attempted_call t time = Option.map fst (Hashtbl.find_opt t.outcomes time)

let last_time t = t.last_time

let entry_count t = Vec.length t.entries

let iter_entries_from t k f =
  for i = k to Vec.length t.entries - 1 do
    f (Vec.get t.entries i) (Vec.get t.steps i)
  done

let call_at t time = List.find_opt (fun c -> c.time = time) (calls t)

let resources_of_call t call =
  entries t |> List.filter (fun e -> e.call = call) |> List.map (fun e -> e.uri)

let call_of_resource t uri =
  Option.map (fun i -> (Vec.get t.entries i).call) (Hashtbl.find_opt t.by_uri uri)

let step_of_resource t uri =
  Option.map (Vec.get t.steps) (Hashtbl.find_opt t.by_uri uri)

(* The Source table of Figure 2: Res. | Call | Service | Time. *)
let source_table t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "Res. | Call | Service          | Time\n";
  Buffer.add_string buf "-----+------+------------------+-----\n";
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%-4s | %-4s | %-16s | t%d\n" e.uri (call_id e.call)
           e.call.service e.call.time))
    (entries t);
  Buffer.contents buf

(* Attempts | outcome table, same spirit as the Source table: one row per
   supervision attempt, failed timestamps included. *)
let attempts_table t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "Call | Service          | Try | Outcome\n";
  Buffer.add_string buf "-----+------------------+-----+--------\n";
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "c%-3d | %-16s | %-3d | %s\n" a.a_time a.a_service
           a.a_attempt
           (if a.a_ok then "ok" else "failed: " ^ a.a_reason)))
    (attempts t);
  Buffer.contents buf
