(* Seeded fault injection: wrap any catalog service so that attempts fail
   in controlled, reproducible ways.  This is how the failure subsystem is
   exercised — by tests (strategy agreement under faults), by the fault/*
   bench series (inference over degraded runs) and by
   [bin/main.exe run --fault-rate].

   Faults are decided per {e attempt}: the wrapper keeps a counter, and
   the (seed, service name, attempt number) triple seeds the decision —
   deterministic for a given plan and workflow, yet transient, so a
   retried call can succeed. *)

open Weblab_xml
open Weblab_workflow

type fault =
  | Crash  (* the service raises after doing its work (partial appends!) *)
  | Garbage_xml  (* the service output does not parse *)
  | Mutate_committed  (* the service edits a committed node *)
  | Duplicate_uri  (* the service mints a URI that is already taken *)
  | Stall  (* the service busy-loops before doing its work *)

let fault_name = function
  | Crash -> "crash"
  | Garbage_xml -> "garbage-xml"
  | Mutate_committed -> "mutate-committed"
  | Duplicate_uri -> "duplicate-uri"
  | Stall -> "stall"

let all_faults = [ Crash; Garbage_xml; Mutate_committed; Duplicate_uri; Stall ]

type plan = {
  rate : float;
  seed : int;
  faults : fault array;
  stall_s : float;
}

let plan ?(faults = all_faults) ?(stall_s = 0.02) ~rate ~seed () =
  if faults = [] then invalid_arg "Faulty.plan: empty fault list";
  { rate; seed; faults = Array.of_list faults; stall_s }

let decide plan name attempt =
  let rng = Random.State.make [| plan.seed; Hashtbl.hash name; attempt |] in
  if Random.State.float rng 1.0 < plan.rate then
    Some plan.faults.(Random.State.int rng (Array.length plan.faults))
  else None

(* CPU-bound stall, observable by the orchestrator's Sys.time budget. *)
let busy_wait s =
  let t0 = Sys.time () in
  while Sys.time () -. t0 < s do
    ignore (Sys.opaque_identity 0)
  done

let existing_uri doc =
  match Tree.resources doc with
  | n :: _ -> Tree.uri doc n
  | [] -> None

let inject_duplicate doc =
  if Tree.has_root doc then
    match existing_uri doc with
    | Some u ->
      let n = Tree.new_element doc ~parent:(Tree.root doc) "Injected" in
      Tree.set_uri doc n u
    | None -> ()

(* In-process faults work directly against the shared arena; the
   orchestrator's fingerprint/commit checks are what catches them.
   Garbage XML has no in-process analog (there is no serialized output to
   corrupt), so it surfaces as the same exception the blackbox path would
   produce for unparsable output. *)
let apply_inproc fault ~stall_s name f doc =
  match fault with
  | None -> f doc
  | Some Crash ->
    f doc;
    failwith (Printf.sprintf "injected crash in %s" name)
  | Some Stall ->
    busy_wait stall_s;
    f doc
  | Some Mutate_committed ->
    if Tree.has_root doc then
      Tree.set_attr doc (Tree.root doc) "injected-corruption" "1";
    f doc
  | Some Duplicate_uri ->
    f doc;
    inject_duplicate doc
  | Some Garbage_xml ->
    raise
      (Orchestrator.Append_violation
         (Printf.sprintf "injected garbage XML output from %s" name))

(* Black-box faults corrupt the serialized output (of either blackbox
   mode: [f] is applied to [input], a state or unit); the Recorder's
   graft is what catches them. *)
let apply_blackbox fault ~stall_s name f input =
  match fault with
  | None -> f input
  | Some Crash ->
    let (_ : string) = f input in
    failwith (Printf.sprintf "injected crash in %s" name)
  | Some Stall ->
    busy_wait stall_s;
    f input
  | Some Garbage_xml -> "<injected-garbage"
  | Some Mutate_committed ->
    (* The graft tolerates attributes added to a matched node (labels,
       promotions), so the edit rewrites a committed value instead. *)
    let d = Xml_parser.parse (f input) in
    (if Tree.has_root d then
       let r = Tree.root d in
       match Tree.attrs d r with
       | (k, v) :: _ -> Tree.set_attr d r k (v ^ "-injected-corruption")
       | [] -> Tree.set_attr d r "injected-corruption" "1");
    Printer.to_string d
  | Some Duplicate_uri ->
    let d = Xml_parser.parse (f input) in
    inject_duplicate d;
    Printer.to_string d

(* The wrapped service keeps its name: rulebooks key on service names, so
   provenance rules keep applying to the surviving calls. *)
let wrap_with decide_fn ~stall_s (svc : Service.t) =
  let name = Service.name svc in
  let counter = ref 0 in
  let impl =
    match svc.Service.impl with
    | Service.Inproc f ->
      Service.Inproc
        (fun doc ->
          incr counter;
          apply_inproc (decide_fn name !counter) ~stall_s name f doc)
    | Service.Blackbox f ->
      Service.Blackbox
        (fun input ->
          incr counter;
          apply_blackbox (decide_fn name !counter) ~stall_s name f input)
    | Service.Blackbox_doc f ->
      Service.Blackbox_doc
        (fun () ->
          incr counter;
          (* Without a fault the state passes as it came, so its graft
             can still resume on the request's text. *)
          match decide_fn name !counter with
          | None -> f ()
          | fault ->
            Xml_text.of_string
              (apply_blackbox fault ~stall_s name
                 (fun () -> Xml_text.to_string (f ()))
                 ()))
  in
  Service.make ~name
    ~description:(Service.description svc ^ " [fault-injected]")
    impl

let wrap plan svc = wrap_with (decide plan) ~stall_s:plan.stall_s svc

let wrap_all plan svcs = List.map (wrap plan) svcs

let with_fault ?(stall_s = 0.02) fault svc =
  wrap_with (fun _ _ -> Some fault) ~stall_s svc

let failing_first ?(stall_s = 0.02) k fault svc =
  wrap_with (fun _ attempt -> if attempt <= k then Some fault else None) ~stall_s svc
