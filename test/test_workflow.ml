(* Tests for the orchestrator / Recorder: append-semantics enforcement,
   resource labeling, trace construction, black-box integration. *)

open Weblab_xml
open Weblab_workflow

let check = Alcotest.check
let check_int = check Alcotest.int
let check_str = check Alcotest.string
let check_bool = check Alcotest.bool

let add_service name f = Service.inproc ~name ~description:"" f

(* A service appending one <F id?> fragment under the root. *)
let appender ?uri name =
  add_service name (fun doc ->
      let n = Tree.new_element doc ~parent:(Tree.root doc) "F" in
      match uri with Some u -> Tree.set_uri doc n u | None -> ())

let test_basic_execution () =
  let doc = Orchestrator.initial_document () in
  let trace =
    Orchestrator.execute doc [ appender "S1"; appender "S2" ]
  in
  let calls = Trace.calls trace in
  check_int "three calls (incl. Source)" 3 (List.length calls);
  check (Alcotest.list Alcotest.string) "call order"
    [ "Source"; "S1"; "S2" ]
    (List.map (fun c -> c.Trace.service) calls);
  (* root + two fragments *)
  check_int "entries" 3 (List.length (Trace.entries trace))

let test_labels_and_timestamps () =
  let doc = Orchestrator.initial_document () in
  let _ = Orchestrator.execute doc [ appender "S1"; appender "S2" ] in
  let resources = Tree.resources doc in
  check_int "three resources" 3 (List.length resources);
  List.iter
    (fun n ->
      match Tree.service_label doc n with
      | Some (s, t) ->
        check_int "label time = creation" (Tree.created doc n) t;
        if t = 0 then check_str "initial label" "Source" s
      | None -> Alcotest.fail "resource without label")
    resources

let test_auto_uri_assignment () =
  let doc = Orchestrator.initial_document () in
  let trace = Orchestrator.execute doc [ appender "S1" ] in
  let call = Option.get (Trace.call_at trace 1) in
  match Trace.resources_of_call trace call with
  | [ uri ] -> check_bool "fresh uri" true (uri <> "r1" && String.length uri > 1)
  | l -> Alcotest.failf "expected one resource, got %d" (List.length l)

(* The URI table lives in its document: once the caller drops a
   document that minted URIs, nothing else keeps it alive. *)
let test_minted_document_collectable () =
  let w = Weak.create 1 in
  let[@inline never] run () =
    let doc = Orchestrator.initial_document () in
    ignore (Orchestrator.execute doc [ appender "S1"; appender "S2" ]);
    check_int "fragment roots got URIs" 3 (List.length (Tree.resources doc));
    Weak.set w 0 (Some doc)
  in
  run ();
  Gc.full_major ();
  check_bool "dropped document collected" false (Weak.check w 0)

(* An id set by a promotion enters the document's URI table through
   [Tree.set_attr]: the next candidate skips it. *)
let test_fresh_uri_sees_promotion () =
  let doc = Orchestrator.initial_document () in
  let a = Tree.new_element doc ~parent:(Tree.root doc) "A" in
  let first = Tree.fresh_uri doc in
  check_str "probe starts at the arena size" "r2" first;
  let b = Tree.new_element doc ~parent:(Tree.root doc) "B" in
  ignore (Tree.fresh_uri doc);
  Tree.set_uri doc a "r4";
  Tree.set_uri doc b "r5";
  let _ = Tree.new_element doc ~parent:(Tree.root doc) "C" in
  check_str "promoted URIs are skipped" "r6" (Tree.fresh_uri doc)

let test_nested_resources_labeled () =
  (* A fragment containing an inner resource: both get trace entries. *)
  let svc =
    add_service "S" (fun doc ->
        let f = Tree.new_element doc ~parent:(Tree.root doc) "F" in
        let inner = Tree.new_element doc ~parent:f "G" in
        Tree.set_uri doc inner "inner1")
  in
  let doc = Orchestrator.initial_document () in
  let trace = Orchestrator.execute doc [ svc ] in
  let call = Option.get (Trace.call_at trace 1) in
  check_int "two resources for the call" 2
    (List.length (Trace.resources_of_call trace call))

let test_promotion_attribution () =
  (* A later call promotes an initial node: the resource is attributed to
     Source/t0, as node 3 of the paper is. *)
  let doc = Orchestrator.initial_document () in
  let n = Tree.new_element doc ~parent:(Tree.root doc) "N" in
  let promoter =
    add_service "P" (fun doc ->
        Tree.set_uri doc n "rn";
        ignore (Tree.new_element doc ~parent:(Tree.root doc) "F"))
  in
  let trace = Orchestrator.execute doc [ promoter ] in
  match Trace.call_of_resource trace "rn" with
  | Some c ->
    check_str "service" "Source" c.Trace.service;
    check_int "time" 0 c.Trace.time;
    check_int "promotion time recorded" 1 (Tree.uri_time doc n)
  | None -> Alcotest.fail "promoted resource not in trace"

let expect_violation doc services =
  match Orchestrator.execute doc services with
  | _ -> Alcotest.fail "expected Append_violation"
  | exception Orchestrator.Append_violation _ -> ()

let test_violation_text_change () =
  let doc = Orchestrator.initial_document () in
  let t = Tree.new_text doc ~parent:(Tree.root doc) "original" in
  expect_violation doc
    [ add_service "Bad" (fun doc -> Tree.set_text doc t "changed") ]

let test_violation_attr_change () =
  let doc = Orchestrator.initial_document () in
  expect_violation doc
    [ add_service "Bad" (fun doc -> Tree.set_uri doc (Tree.root doc) "other") ]

let test_violation_foreign_attr_added () =
  let doc = Orchestrator.initial_document () in
  expect_violation doc
    [ add_service "Bad" (fun doc -> Tree.set_attr doc (Tree.root doc) "x" "1") ]

let test_duplicate_uri_rejected () =
  let doc = Orchestrator.initial_document () in
  match Orchestrator.execute doc [ appender ~uri:"r1" "S" ] with
  | _ -> Alcotest.fail "expected Duplicate_uri"
  | exception Orchestrator.Duplicate_uri u -> check_str "dup" "r1" u

let test_on_step_states () =
  let doc = Orchestrator.initial_document () in
  let seen = ref [] in
  let on_step call before after (delta : Orchestrator.delta) =
    seen :=
      ( call.Trace.service,
        ( Doc_state.time before,
          Doc_state.time after,
          List.length delta.Orchestrator.new_nodes ) )
      :: !seen
  in
  let _ = Orchestrator.execute ~on_step doc [ appender "S1"; appender "S2" ] in
  check
    (Alcotest.list
       (Alcotest.pair Alcotest.string
          (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int)))
    "steps"
    [ ("S1", (0, 1, 1)); ("S2", (1, 2, 1)) ]
    (List.rev !seen)

let test_states_grow () =
  let doc = Orchestrator.initial_document () in
  let _ = Orchestrator.execute doc [ appender "S1"; appender "S2" ] in
  let d0 = Doc_state.at doc 0 and d1 = Doc_state.at doc 1 and d2 = Doc_state.at doc 2 in
  check_int "d0" 1 (List.length (Doc_state.nodes d0));
  check_int "d1" 2 (List.length (Doc_state.nodes d1));
  check_int "d2" 3 (List.length (Doc_state.nodes d2));
  check_bool "monotone" true (Doc_state.timestamps_monotonic doc)

(* --- black-box services --- *)

let test_blackbox_append () =
  (* The service sees serialized XML and returns it with a new fragment. *)
  let svc =
    Service.blackbox ~name:"BB" ~description:"" (fun xml ->
        let stripped = String.sub xml 0 (String.length xml - String.length "</Resource>") in
        stripped ^ "<F id=\"bb1\">out</F></Resource>")
  in
  let doc = Orchestrator.initial_document () in
  ignore (Tree.new_element doc ~parent:(Tree.root doc) "A");
  let trace = Orchestrator.execute doc [ svc ] in
  let call = Option.get (Trace.call_at trace 1) in
  check (Alcotest.list Alcotest.string) "bb resource" [ "bb1" ]
    (Trace.resources_of_call trace call);
  let n = Option.get (Tree.find_resource doc "bb1") in
  check_str "content copied" "out" (Tree.string_value doc n);
  check_int "created time" 1 (Tree.created doc n)

let test_blackbox_violation () =
  let svc =
    Service.blackbox ~name:"BB" ~description:"" (fun _ -> "<Other/>")
  in
  let doc = Orchestrator.initial_document () in
  expect_violation doc [ svc ]

let test_blackbox_unparsable () =
  let svc = Service.blackbox ~name:"BB" ~description:"" (fun _ -> "garbage <") in
  let doc = Orchestrator.initial_document () in
  expect_violation doc [ svc ]

(* naive substring replace, first occurrence *)
let replace_once hay needle replacement =
  let nh = String.length hay and nn = String.length needle in
  let rec find i = if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i else find (i + 1) in
  match find 0 with
  | None -> hay
  | Some i ->
    String.sub hay 0 i ^ replacement ^ String.sub hay (i + nn) (nh - i - nn)

let test_blackbox_promotion () =
  (* Black-box services can promote nodes by returning them with an id. *)
  let svc =
    Service.blackbox ~name:"BB" ~description:"" (fun xml ->
        replace_once xml "<A/>" "<A id=\"pr1\"/>")
  in
  let doc = Orchestrator.initial_document () in
  ignore (Tree.new_element doc ~parent:(Tree.root doc) "A");
  let trace = Orchestrator.execute doc [ svc ] in
  check_bool "promoted in arena" true (Tree.find_resource doc "pr1" <> None);
  check_bool "in trace" true (Trace.call_of_resource trace "pr1" <> None)

let test_equivalence_inproc_blackbox () =
  (* The same logical service implemented both ways yields the same final
     document content. *)
  let in_doc () =
    let doc = Orchestrator.initial_document () in
    ignore (Tree.new_text doc ~parent:(Tree.root doc) "seed");
    doc
  in
  let doc1 = in_doc () in
  let _ =
    Orchestrator.execute doc1
      [ add_service "S" (fun doc ->
            let f = Tree.new_element doc ~parent:(Tree.root doc) "F" in
            ignore (Tree.new_text doc ~parent:f "x")) ]
  in
  let doc2 = in_doc () in
  let _ =
    Orchestrator.execute doc2
      [ Service.blackbox ~name:"S" ~description:"" (fun xml ->
            let stripped =
              String.sub xml 0 (String.length xml - String.length "</Resource>")
            in
            stripped ^ "<F>x</F></Resource>") ]
  in
  (* Compare string values and resource counts (URIs are auto-assigned the
     same way). *)
  check_str "same content" (Tree.string_value doc1 (Tree.root doc1))
    (Tree.string_value doc2 (Tree.root doc2));
  check_int "same resources" (List.length (Tree.resources doc1))
    (List.length (Tree.resources doc2))

let test_empty_workflow () =
  let doc = Orchestrator.initial_document () in
  let trace = Orchestrator.execute doc [] in
  check_int "just Source" 1 (List.length (Trace.calls trace));
  check_int "root labeled" 1 (List.length (Trace.entries trace))

let test_blackbox_noop () =
  (* A service returning the document unchanged adds nothing — and is not
     a violation. *)
  let svc = Service.blackbox ~name:"Noop" ~description:"" (fun xml -> xml) in
  let doc = Orchestrator.initial_document () in
  ignore (Tree.new_element doc ~parent:(Tree.root doc) "A");
  let before = Tree.size doc in
  let trace = Orchestrator.execute doc [ svc ] in
  check_int "no new nodes" before (Tree.size doc);
  let call = Option.get (Trace.call_at trace 1) in
  check_int "no resources" 0 (List.length (Trace.resources_of_call trace call))

let test_inproc_noop () =
  let svc = add_service "Noop" (fun _ -> ()) in
  let doc = Orchestrator.initial_document () in
  let trace = Orchestrator.execute doc [ svc ] in
  let call = Option.get (Trace.call_at trace 1) in
  check_int "no resources" 0 (List.length (Trace.resources_of_call trace call))

let test_text_fragment_root () =
  (* A text node appended directly under the root is an unidentifiable
     fragment: tolerated, simply not a resource. *)
  let svc =
    add_service "Texty" (fun doc ->
        ignore (Tree.new_text doc ~parent:(Tree.root doc) "loose text"))
  in
  let doc = Orchestrator.initial_document () in
  let trace = Orchestrator.execute doc [ svc ] in
  let call = Option.get (Trace.call_at trace 1) in
  check_int "text is not a resource" 0
    (List.length (Trace.resources_of_call trace call));
  check_bool "text present" true
    (Tree.string_value doc (Tree.root doc) = "loose text")

let test_service_raises () =
  (* A raising service propagates its exception; nothing is committed
     beyond the arena appends it already made. *)
  let svc = add_service "Boom" (fun _ -> failwith "boom") in
  let doc = Orchestrator.initial_document () in
  match Orchestrator.execute doc [ svc ] with
  | _ -> Alcotest.fail "expected the service exception"
  | exception Failure m -> check Alcotest.string "propagated" "boom" m

let test_initial_document_options () =
  let doc = Orchestrator.initial_document ~root_name:"Corpus" ~root_uri:"c0" () in
  check Alcotest.string "name" "Corpus" (Tree.name doc (Tree.root doc));
  check Alcotest.string "uri" "c0" (Option.get (Tree.uri doc (Tree.root doc)))

(* --- properties: the Recorder's delta work against full-scan oracles --- *)

open QCheck

let names = [| "A"; "B"; "C" |]

(* A random fragment with text leaves and an occasional "k" attribute. *)
let rec fragment doc parent depth st =
  let attrs = if Random.State.bool st then [ ("k", "1") ] else [] in
  let n = Tree.new_element doc ~parent names.(Random.State.int st 3) ~attrs in
  if Random.State.bool st then
    ignore (Tree.new_text doc ~parent:n (string_of_int (Random.State.int st 3)));
  if depth > 0 then
    for _ = 1 to Random.State.int st 3 do
      fragment doc n (depth - 1) st
    done

let pick st doc pred =
  let size = Tree.size doc in
  if size = 0 then None
  else begin
    let rec go tries =
      let n = Random.State.int st size in
      if pred n then Some n else if tries > 30 then None else go (tries + 1)
    in
    go 0
  end

let append_some st doc =
  for _ = 1 to Random.State.int st 3 do
    match pick st doc (Tree.is_element doc) with
    | Some p -> fragment doc p 1 st
    | None -> ()
  done

(* One in-process call: a few appends under random elements, and one
   edit of committed state that the append check must judge. *)
let mutating_call mseed doc =
  let st = Random.State.make [| mseed |] in
  let edit () =
    match Random.State.int st 6 with
    | 0 -> (
      match pick st doc (Tree.is_text doc) with
      | Some n ->
        Tree.set_text doc n
          (if Random.State.bool st then Tree.text doc n else "changed")
      | None -> ())
    | 1 -> (
      match
        pick st doc (fun n -> Tree.is_element doc n && Tree.attrs doc n <> [])
      with
      | Some n ->
        let attrs = Tree.attrs doc n in
        let k, v = List.nth attrs (Random.State.int st (List.length attrs)) in
        Tree.set_attr doc n k (if Random.State.bool st then v else v ^ "'")
      | None -> ())
    | 2 -> (
      match pick st doc (Tree.is_element doc) with
      | Some n -> Tree.set_attr doc n "x" "1"
      | None -> ())
    | 3 | 4 -> (
      match
        pick st doc (fun n -> Tree.is_element doc n && Tree.uri doc n = None)
      with
      | Some n -> Tree.set_uri doc n (Printf.sprintf "p%d" n)
      | None -> ())
    | _ -> (
      match pick st doc (Tree.is_resource doc) with
      | Some n -> Tree.set_uri doc n (Printf.sprintf "q%d" n)
      | None -> ())
  in
  if Random.State.bool st then begin
    edit ();
    append_some st doc
  end
  else begin
    append_some st doc;
    edit ()
  end

(* A started session over a random document, with a few committed
   append-only calls behind it: rebuilt from the seed for each side. *)
let committed_session seed =
  let st = Random.State.make [| seed |] in
  let doc = Orchestrator.initial_document () in
  for _ = 1 to 1 + Random.State.int st 3 do
    fragment doc (Tree.root doc) 2 st
  done;
  let s = Orchestrator.start doc in
  for i = 1 to Random.State.int st 3 do
    let aseed = Random.State.bits st in
    ignore
      (Orchestrator.step s
         (add_service (Printf.sprintf "W%d" i) (fun doc ->
              append_some (Random.State.make [| aseed |]) doc)))
  done;
  s

let prop_append_check_parity =
  Test.make ~name:"append check = fingerprint oracle (outcome, promoted, reason)"
    ~count:400
    (make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let mseed = (seed * 31) + 7 in
      let live =
        Orchestrator.step (committed_session seed)
          (add_service "M" (mutating_call mseed))
      in
      let oracle =
        Weblab_test_support.Append_oracle.run
          (Orchestrator.session_doc (committed_session seed))
          (mutating_call mseed)
      in
      match live, oracle with
      | Orchestrator.Committed { delta; _ }, Ok (new_nodes, promoted) ->
        delta.Orchestrator.new_nodes = new_nodes
        && delta.Orchestrator.promoted = promoted
      | Orchestrator.Step_failed { reason; _ }, Error expected ->
        String.equal reason expected
        || Test.fail_reportf "reason %S, oracle %S" reason expected
      | Orchestrator.Committed _, Error e ->
        Test.fail_reportf "committed, oracle rejected: %s" e
      | Orchestrator.Step_failed { reason; _ }, Ok _ ->
        Test.fail_reportf "rejected (%s), oracle accepted" reason)

(* A random pipeline over every way a resource can appear: in-process
   appends with nested identified nodes, promotions of older elements,
   client-XML grafts that append and promote, calls that fail after
   appending, and calls that only commit on their retry. *)
let pipeline seed =
  let st = Random.State.make [| seed |] in
  let doc = Orchestrator.initial_document () in
  for _ = 1 to 1 + Random.State.int st 3 do
    fragment doc (Tree.root doc) 1 st
  done;
  let uid = ref 0 in
  let fresh prefix =
    incr uid;
    Printf.sprintf "%s%d-%d" prefix seed !uid
  in
  let promote st doc prefix =
    match
      pick st doc (fun n -> Tree.is_element doc n && Tree.uri doc n = None)
    with
    | Some n -> Tree.set_uri doc n (fresh prefix)
    | None -> ()
  in
  let inproc i =
    let cseed = Random.State.bits st in
    add_service (Printf.sprintf "I%d" i) (fun doc ->
        let st = Random.State.make [| cseed |] in
        if Random.State.bool st then promote st doc "p";
        append_some st doc;
        (* an identified node inside an appended fragment *)
        match pick st doc (fun n -> Tree.is_element doc n) with
        | Some p when Random.State.bool st ->
          let f = Tree.new_element doc ~parent:p "F" in
          let g = Tree.new_element doc ~parent:f "G" in
          Tree.set_uri doc g (fresh "n")
        | _ -> ())
  in
  let client i =
    let cseed = Random.State.bits st in
    Service.blackbox_doc ~name:(Printf.sprintf "X%d" i) ~description:""
      (fun () ->
        let st = Random.State.make [| cseed |] in
        let next, _ = Ingest.of_string (Printer.to_string doc) in
        if Random.State.bool st then promote st next "c";
        append_some st next;
        Xml_text.of_string (Printer.to_string next))
  in
  let failing i =
    add_service (Printf.sprintf "F%d" i) (fun doc ->
        append_some (Random.State.make [| i |]) doc;
        failwith "boom")
  in
  let flaky i =
    let calls = ref 0 and cseed = Random.State.bits st in
    add_service (Printf.sprintf "R%d" i) (fun doc ->
        incr calls;
        let st = Random.State.make [| cseed |] in
        promote st doc "r";
        append_some st doc;
        if !calls = 1 then failwith "transient")
  in
  let services =
    List.init
      (3 + Random.State.int st 6)
      (fun i ->
        match Random.State.int st 5 with
        | 0 | 1 -> inproc i
        | 2 -> client i
        | 3 -> failing i
        | _ -> flaky i)
  in
  (doc, services)

let prop_delta_labeling =
  Test.make
    ~name:"delta labeling = full-scan labeling (trace entries, order included)"
    ~count:150
    (make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let doc, services = pipeline seed in
      let policy =
        { Orchestrator.default_policy with retries = 1; on_failure = `Skip }
      in
      let s = Orchestrator.start ~policy doc in
      let trace = Orchestrator.session_trace s in
      let labeled = Hashtbl.create 64 in
      Trace.iter_entries_from trace 0 (fun e _ ->
          Hashtbl.replace labeled e.Trace.node ());
      List.for_all
        (fun svc ->
          let k = Trace.entry_count trace in
          let now = Orchestrator.next_time s in
          ignore (Orchestrator.step s svc);
          let got = ref [] in
          Trace.iter_entries_from trace k (fun e step ->
              got := (e.Trace.uri, e.Trace.node, e.Trace.call, step) :: !got);
          (* the full scan: every resource not yet labeled, in document
             order, attributed to the call active at its creation *)
          let expected =
            List.filter_map
              (fun n ->
                if Hashtbl.mem labeled n then None
                else begin
                  Hashtbl.replace labeled n ();
                  let time = Tree.created doc n in
                  let service =
                    match Trace.call_at trace time with
                    | Some c -> c.Trace.service
                    | None -> "Source"
                  in
                  Some
                    (Option.get (Tree.uri doc n), n,
                     { Trace.service; time }, now)
                end)
              (Tree.resources doc)
          in
          List.rev !got = expected
          || Test.fail_reportf "step t%d (%s): %d entries, full scan %d" now
               (Service.name svc) (List.length !got) (List.length expected))
        services)

(* ===== event graft = parse/diff/copy oracle ===== *)

module Oracle_graft = Weblab_test_support.Oracle_graft

let arena_fingerprint = Weblab_test_support.Append_oracle.arena_fingerprint

open Weblab_test_support.Graft_gen

let graft_attr st =
  ([| "k"; "j"; "s" |].(Random.State.int st 3), string_of_int (Random.State.int st 3))

(* A random old arena, grown the way in-process edits grow one: any
   element may gain a last child at any time, so ids leave preorder.
   Adjacent and whitespace-only texts and repeated attribute names are
   rare; about one arena in twenty has no root at all. *)
let graft_old_arena st =
  let doc = Tree.create () in
  if Random.State.int st 20 > 0 then begin
    ignore
      (Tree.new_element doc ~parent:Tree.no_node
         ~attrs:(if Random.State.bool st then [ ("id", "r1") ] else [])
         "R");
    for i = 1 to Random.State.int st 30 do
      let p =
        let rec find k =
          let n = Random.State.int st (Tree.size doc) in
          if Tree.is_element doc n || k = 0 then n else find (k - 1)
        in
        find 8
      in
      if Tree.is_element doc p then begin
        let last = Tree.last_child doc p in
        let after_text = last <> Tree.no_node && Tree.is_text doc last in
        match Random.State.int st 20 with
        | 0 when Random.State.int st 8 = 0 ->
          ignore (Tree.new_text doc ~parent:p " ")
        | k when k < 6 && not after_text ->
          ignore
            (Tree.new_text doc ~parent:p
               graft_texts.(Random.State.int st (Array.length graft_texts)))
        | k ->
          let attrs =
            List.init (Random.State.int st 3) (fun _ -> graft_attr st)
            @ (if k mod 3 = 0 then [ ("id", Printf.sprintf "o%d" i) ] else [])
          in
          let attrs =
            (* repeated names only now and then *)
            if k = 19 then attrs
            else List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) attrs
          in
          let n =
            Tree.new_element doc ~attrs ~parent:p
              names.(Random.State.int st (Array.length names))
          in
          Tree.set_created doc n (Random.State.int st 4)
      end
    done
  end;
  doc

(* One of the ways a next state can break containment, applied at the
   [target]-th node of the walk (if that node has what it changes). *)
type breakage = Drop | Swap | Retext | Rename | Reattr | Shadow_attr

(* The next state as a fresh tree: the old arena walked in document
   order, each child possibly preceded by inserted fragments or by a
   decoy — a copy of it missing its last child, whose embedding fails
   only at its end tag after a matched prefix — and each matched element
   possibly promoted or given an extra attribute. *)
let graft_next_state st old ~breakage =
  let next = Tree.create () in
  let uid = ref 0 in
  let fresh p = incr uid; Printf.sprintf "%s%d" p !uid in
  let visit = ref 0 in
  let target = Random.State.int st (max 1 (Tree.size old)) in
  (* [text]: a text root may go here without merging into a text
     neighbour when printed. *)
  let rec fragment ?(text = true) parent depth =
    if parent <> Tree.no_node && text && Random.State.int st 3 = 0 then
      ignore
        (Tree.new_text next ~parent
           (if Random.State.int st 4 = 0 then "  "
            else graft_texts.(Random.State.int st (Array.length graft_texts))))
    else begin
      let attrs =
        (if Random.State.bool st then [ ("id", fresh "f") ] else [])
        @ List.init (Random.State.int st 2) (fun _ -> graft_attr st)
      in
      let n =
        Tree.new_element next ~attrs ~parent
          names.(Random.State.int st (Array.length names))
      in
      if depth > 0 then
        for _ = 1 to Random.State.int st 3 do
          fragment n (depth - 1)
        done
    end
  in
  (* Added attributes never repeat a name: a repeated name is unparsable
     (XML 1.0's Unique Att Spec), which only [Shadow_attr] and the old
     arena's rare repeated names produce, and both sides must reject
     with the same parse error. *)
  let element_attrs n =
    let attrs = Tree.attrs old n in
    match Random.State.int st 6 with
    | 0 when Tree.uri old n = None -> attrs @ [ ("id", fresh "p") ]
    | 1 | 2 ->
      let k, v = graft_attr st in
      if List.mem_assoc k attrs then attrs else attrs @ [ (k, v) ]
    | _ -> attrs
  in
  let rec copy ?(decoy = false) n parent =
    let here = !visit in
    incr visit;
    let broken b = (not decoy) && here = target && breakage = Some b in
    if Tree.is_text old n then begin
      let t = Tree.text old n in
      ignore
        (Tree.new_text next ~parent
           (if broken Retext then t ^ "!" else t))
    end
    else begin
      let attrs = element_attrs n in
      let attrs =
        match attrs with
        | (k, v) :: rest when broken Reattr -> (k, v ^ "!") :: rest
        (* a repeated name: unparsable *)
        | (k, _) :: _ when broken Shadow_attr -> (k, "shadow") :: attrs
        | _ -> attrs
      in
      let name = Tree.name old n in
      let name = if broken Rename then name ^ "X" else name in
      let m = Tree.new_element next ~attrs ~parent name in
      let kids = Tree.children old n in
      let kids =
        if decoy then List.filteri (fun i _ -> i < List.length kids - 1) kids
        else kids
      in
      let kids =
        match kids with
        | _ :: rest when broken Drop -> rest
        | a :: b :: rest when broken Swap -> b :: a :: rest
        | _ -> kids
      in
      let prev_text = ref false in
      List.iter
        (fun c ->
          let text = (not !prev_text) && Tree.is_element old c in
          prev_text := Tree.is_text old c;
          (match Random.State.int st 8 with
           | 0 | 1 -> fragment ~text m (Random.State.int st 3)
           | 2 when (not decoy) && Tree.is_element old c
                    && Tree.first_child old c <> Tree.no_node ->
             copy ~decoy:true c m
           | _ -> ());
          copy ~decoy c m)
        kids;
      if Random.State.int st 3 = 0 then
        fragment ~text:(not !prev_text) m (Random.State.int st 3)
    end
  in
  if Tree.has_root old then copy (Tree.root old) Tree.no_node
  else fragment Tree.no_node 2;
  next

(* The served path's outcome, in the oracle's terms. *)
let event_graft doc xml =
  let old_size = Tree.size doc in
  match Diff.graft ~doc (Xml_text.of_string xml) with
  | promoted, _ ->
    Ok (List.init (Tree.size doc - old_size) (fun i -> old_size + i), promoted)
  | exception (Xml_parser.Error _ as e) ->
    Error ("service returned unparsable XML: " ^ Xml_parser.error_to_string e)
  | exception Diff.Not_contained msg -> Error msg

let graft_case seed =
  let st = Random.State.make [| seed |] in
  let arena_seed = Random.State.bits st in
  let a = graft_old_arena (Random.State.make [| arena_seed |]) in
  let b = graft_old_arena (Random.State.make [| arena_seed |]) in
  let breakage =
    match Random.State.int st 12 with
    | 0 -> Some Drop
    | 1 -> Some Swap
    | 2 -> Some Retext
    | 3 -> Some Rename
    | 4 -> Some Reattr
    | 5 -> Some Shadow_attr
    | _ -> None
  in
  let next = graft_next_state st a ~breakage in
  let xml =
    let full = state_xml next in
    match Random.State.int st 10 with
    | 0 -> String.sub full 0 (Random.State.int st (String.length full))
    | 1 -> full ^ "<"
    | _ -> full
  in
  (a, b, xml)

let prop_event_graft_oracle =
  Test.make
    ~name:
      "event graft = parse/diff/copy oracle (outcome, reason, whole arena, \
       new nodes and promotions in order)"
    ~count:500
    (make ~print:string_of_int Gen.(int_bound 1_000_000_000))
    (fun seed ->
      let a, b, xml = graft_case seed in
      let before = arena_fingerprint a in
      let served = event_graft a xml in
      let oracle = Oracle_graft.graft b xml in
      (match served with
       | Error _ when not (String.equal before (arena_fingerprint a)) ->
         Test.fail_report "a failed graft wrote to the arena"
       | _ -> ());
      let show = function
        | Ok (nn, pr) ->
          Printf.sprintf "Ok: new [%s], promoted [%s]"
            (String.concat ";" (List.map string_of_int nn))
            (String.concat ";" (List.map string_of_int pr))
        | Error m -> m
      in
      (served = oracle
       || Test.fail_reportf "served %s\noracle %s\non %s" (show served)
            (show oracle) xml)
      && (String.equal (arena_fingerprint a) (arena_fingerprint b)
          || Test.fail_reportf "arenas differ on %s" xml))

(* ===== resumed graft = full graft ===== *)

(* One session's step [k]: each twin gets its own copy, so a flaky
   client counts its own attempts. *)
type twin_call =
  | Client of string
  | Flaky of string * string  (* first attempt, then the retries *)
  | Splice  (* a [Blackbox] service: a unit before the root's end tag *)
  | Append of int  (* in-process appends and promotions, from a seed *)
  | Failing of int  (* in-process appends, then an exception *)

let twin_service k = function
  | Client xml ->
    Service.blackbox_doc ~name:(Printf.sprintf "X%d" k) ~description:""
      (fun () -> Xml_text.of_string xml)
  | Flaky (bad, good) ->
    let calls = ref 0 in
    Service.blackbox_doc ~name:(Printf.sprintf "Y%d" k) ~description:""
      (fun () ->
        incr calls;
        Xml_text.of_string (if !calls = 1 then bad else good))
  | Splice ->
    Service.blackbox ~name:(Printf.sprintf "S%d" k) ~description:""
      (fun xml ->
        let close = "</Resource>" in
        let a = String.length xml - String.length close in
        String.sub xml 0 a ^ Printf.sprintf "<Unit id=\"s%d\">s</Unit>" k
        ^ close)
  | Append seed ->
    add_service (Printf.sprintf "I%d" k) (fun doc ->
        let st = Random.State.make [| seed |] in
        (match
           pick st doc (fun n -> Tree.is_element doc n && Tree.uri doc n = None)
         with
         | Some n when Random.State.bool st ->
           Tree.set_uri doc n (Printf.sprintf "i%d-%d" k n)
         | _ -> ());
        append_some st doc)
  | Failing seed ->
    add_service (Printf.sprintf "F%d" k) (fun doc ->
        append_some (Random.State.make [| seed |]) doc;
        failwith "boom")

let show_step = function
  | Orchestrator.Committed { delta; attempts } ->
    Printf.sprintf "committed after %d: new [%s], promoted [%s]" attempts
      (String.concat ";" (List.map string_of_int delta.Orchestrator.new_nodes))
      (String.concat ";" (List.map string_of_int delta.Orchestrator.promoted))
  | Orchestrator.Step_failed { reason; attempts; _ } ->
    Printf.sprintf "failed after %d: %s" attempts reason

let trace_view s =
  let t = Orchestrator.session_trace s in
  ( Trace.entries t, Trace.attempts t, Trace.calls t,
    List.init (Orchestrator.next_time s) (Trace.outcome_at t) )

(* Twin sessions over one random document: [a] keeps the state its
   last blackbox call committed, [b] forgets it before every step and
   so parses every state whole. *)
let resumed_graft_case seed =
  let st = Random.State.make [| seed |] in
  let doc_seed = Random.State.bits st in
  let make_doc () =
    let st = Random.State.make [| doc_seed |] in
    let doc = Orchestrator.initial_document () in
    for _ = 1 to Random.State.int st 5 do
      fragment doc (Tree.root doc) 2 st
    done;
    doc
  in
  let policy =
    { Orchestrator.default_policy with
      retries = Random.State.int st 2;
      max_new_nodes =
        (if Random.State.bool st then None
         else Some (8 + Random.State.int st 16)) }
  in
  let a = Orchestrator.start ~policy (make_doc ())
  and b = Orchestrator.start ~policy (make_doc ()) in
  let layout = 1 + Random.State.int st 5 in
  let steps = 4 + Random.State.int st 10 in
  let last = ref "" in
  let rec go k =
    k > steps
    ||
    let doc = Orchestrator.session_doc a in
    let sent xml =
      last := xml;
      xml
    in
    let call =
      match Random.State.int st 12 with
      | 0 -> Splice
      | 1 -> Append (Random.State.bits st)
      | 2 -> Failing (Random.State.bits st)
      | 3 ->
        let good = client_state st ~layout ~step:k doc in
        Flaky (client_state st ~layout ~step:k doc, sent good)
      | (4 | 5)
        when !last <> ""
             && Tree.last_child doc (Tree.root doc) <> Tree.no_node ->
        Client (sent (resend ~last:!last doc))
      | _ -> Client (sent (client_state st ~layout ~step:k doc))
    in
    let ra = Orchestrator.step a (twin_service k call) in
    Orchestrator.forget_accepted b;
    let rb = Orchestrator.step b (twin_service k call) in
    let sa = show_step ra and sb = show_step rb in
    (String.equal sa sb
     || Test.fail_reportf "step %d: resumed %s\nfull %s" k sa sb)
    && (trace_view a = trace_view b
        || Test.fail_reportf "step %d (%s): traces differ" k sa)
    && (String.equal
          (arena_fingerprint (Orchestrator.session_doc a))
          (arena_fingerprint (Orchestrator.session_doc b))
        || Test.fail_reportf "step %d (%s): arenas differ" k sa)
    && go (k + 1)
  in
  go 1

let prop_resumed_graft =
  Test.make
    ~name:
      "resumed graft = full graft (outcome, reason, promoted, trace, whole \
       arena)"
    ~count:300
    (make ~print:string_of_int Gen.(int_bound 1_000_000_000))
    resumed_graft_case

(* The rejection texts of the duplicate-URI check, pinned: a call that
   repeats one URI fails with "duplicate URI <u>" and leaves no trace of
   it, so the URI stays free for a later call. *)
let test_duplicate_uri_reasons () =
  let doc = Orchestrator.initial_document () in
  let n = Tree.new_element doc ~parent:(Tree.root doc) "N" in
  let s = Orchestrator.start doc in
  let append u doc =
    ignore (Tree.new_element doc ~parent:(Tree.root doc) "F" ~attrs:[ ("id", u) ])
  in
  let step name f = Orchestrator.step s (add_service name f) in
  let expect_reason what reason r =
    match r with
    | Orchestrator.Step_failed { reason = got; _ } -> check_str what reason got
    | Orchestrator.Committed _ -> Alcotest.failf "%s: committed" what
  in
  let expect_commit what = function
    | Orchestrator.Committed _ -> ()
    | Orchestrator.Step_failed { reason; _ } -> Alcotest.failf "%s: %s" what reason
  in
  let size = Tree.size doc in
  expect_reason "two appended fragments" "duplicate URI d1"
    (step "Twice" (fun doc -> append "d1" doc; append "d1" doc));
  expect_reason "reuses the root's URI" "duplicate URI r1"
    (step "Root" (append "r1"));
  expect_commit "first use" (step "Once" (append "c1"));
  expect_reason "reuses a committed URI" "duplicate URI c1"
    (step "Again" (append "c1"));
  expect_reason "append then promotion" "duplicate URI p1"
    (step "AppendPromote" (fun doc -> append "p1" doc; Tree.set_uri doc n "p1"));
  expect_reason "promotion then append" "duplicate URI p1"
    (step "PromoteAppend" (fun doc -> Tree.set_uri doc n "p1"; append "p1" doc));
  check_int "only the committed fragment stays" (size + 1) (Tree.size doc);
  check_bool "rejected URIs resolve to nothing" true
    (Tree.find_resource doc "d1" = None && Tree.find_resource doc "p1" = None);
  expect_commit "a rejected URI is free again" (step "Free" (append "d1"));
  expect_commit "so is a rejected promotion"
    (step "Promote" (fun doc -> Tree.set_uri doc n "p1"))

let () =
  Alcotest.run "workflow"
    [ ( "execution",
        [ Alcotest.test_case "basic" `Quick test_basic_execution;
          Alcotest.test_case "labels" `Quick test_labels_and_timestamps;
          Alcotest.test_case "auto uri" `Quick test_auto_uri_assignment;
          Alcotest.test_case "minting document is collectable" `Quick
            test_minted_document_collectable;
          Alcotest.test_case "fresh uri sees promotions" `Quick
            test_fresh_uri_sees_promotion;
          Alcotest.test_case "nested resources" `Quick test_nested_resources_labeled;
          Alcotest.test_case "promotion" `Quick test_promotion_attribution;
          Alcotest.test_case "on_step" `Quick test_on_step_states;
          Alcotest.test_case "states grow" `Quick test_states_grow ] );
      ( "edges",
        [ Alcotest.test_case "empty workflow" `Quick test_empty_workflow;
          Alcotest.test_case "blackbox noop" `Quick test_blackbox_noop;
          Alcotest.test_case "inproc noop" `Quick test_inproc_noop;
          Alcotest.test_case "text fragment" `Quick test_text_fragment_root;
          Alcotest.test_case "service raises" `Quick test_service_raises;
          Alcotest.test_case "initial options" `Quick test_initial_document_options ] );
      ( "violations",
        [ Alcotest.test_case "text change" `Quick test_violation_text_change;
          Alcotest.test_case "attr change" `Quick test_violation_attr_change;
          Alcotest.test_case "foreign attr" `Quick test_violation_foreign_attr_added;
          Alcotest.test_case "duplicate uri" `Quick test_duplicate_uri_rejected;
          Alcotest.test_case "duplicate uri reasons" `Quick
            test_duplicate_uri_reasons ] );
      ( "blackbox",
        [ Alcotest.test_case "append" `Quick test_blackbox_append;
          Alcotest.test_case "violation" `Quick test_blackbox_violation;
          Alcotest.test_case "unparsable" `Quick test_blackbox_unparsable;
          Alcotest.test_case "promotion" `Quick test_blackbox_promotion;
          Alcotest.test_case "inproc ≡ blackbox" `Quick test_equivalence_inproc_blackbox ] );
      ( "delta",
        List.map QCheck_alcotest.to_alcotest
          [ prop_append_check_parity; prop_delta_labeling;
            prop_event_graft_oracle; prop_resumed_graft ] ) ]
