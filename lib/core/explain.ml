(* Explanation of provenance links: which rule, which call, and which
   variable bindings produced a link.  The witnesses are the joined
   embedding rows of Definition 8 — the evidence a workflow designer needs
   when a link looks wrong (or is missing).

   [missing] goes the other way: for a pair with no link, it reports how
   far each rule got — whether the source side matched, the target side
   matched, and on which variable values the join failed. *)

open Weblab_xml
open Weblab_relalg
open Weblab_workflow

type witness = {
  rule : string;
  call : Trace.call;
  bindings : (string * string) list;  (* shared variables and their values *)
}

let witness_to_string w =
  Printf.sprintf "rule %s at (%s, t%d)%s" w.rule w.call.Trace.service
    w.call.Trace.time
    (if w.bindings = [] then ""
     else
       " with "
       ^ String.concat ", "
           (List.map (fun (x, v) -> Printf.sprintf "$%s = %s" x v) w.bindings))

(* R_φS over d and R_φT over d', both from one index over the final
   arena: a document state is visibility guards over that arena. *)
let tables index rule d d' =
  let guards = Weblab_xpath.Eval.state_guards in
  ( Mapping.source_table ~guards:(guards d) ~index (Doc_state.doc d) rule,
    Mapping.target_table ~guards:(guards d') ~index (Doc_state.doc d') rule )

(* All witnesses for the link [from_uri -> to_uri] under the rulebook. *)
let link ~doc ~trace (rb : Strategy.rulebook) ~from_uri ~to_uri : witness list =
  let index = Index.build doc in
  Trace.calls trace
  |> List.concat_map (fun (call : Trace.call) ->
         if call.Trace.time = 0 then []
         else
           Strategy.rules_for rb call.Trace.service
           |> List.concat_map (fun rule ->
                  if Mapping.is_skolem_rule rule then []
                  else begin
                    let d = Doc_state.at doc (call.Trace.time - 1) in
                    let d' = Doc_state.at doc call.Trace.time in
                    let j =
                      let rs, rt = tables index rule d d' in
                      Table.hash_join rs rt
                    in
                    if not (Mapping.generated_by doc call from_uri) then []
                    else
                      Table.rows j
                      |> List.filter_map (fun row ->
                             let v c = Value.to_string (Table.get j row c) in
                             if v "out" = from_uri && v "in" = to_uri then
                               Some
                                 {
                                   rule = Rule.name rule;
                                   call;
                                   bindings =
                                     Table.columns j
                                     |> List.filter (fun c ->
                                            c <> "in" && c <> "out"
                                            && not (String.length c > 3
                                                    && String.sub c 0 4 = "node"))
                                     |> List.map (fun c -> (c, v c));
                                 }
                             else None)
                  end))

type failure =
  | Source_no_match       (* φ_S matched nothing in d_{i-1} *)
  | Target_no_match       (* φ_T matched nothing in d_i *)
  | Join_mismatch of (string * string list * string list) list
      (* per shared variable: values on the source side vs target side *)
  | Wrong_call            (* the target resource was not produced by this call *)

type diagnosis = {
  d_rule : string;
  d_call : Trace.call;
  failure : failure;
}

let failure_to_string = function
  | Source_no_match -> "the source pattern matched nothing before the call"
  | Target_no_match -> "the target pattern matched nothing in the call's output"
  | Wrong_call -> "the target resource was produced by a different call"
  | Join_mismatch vars ->
    "the join failed: "
    ^ String.concat "; "
        (List.map
           (fun (x, src, tgt) ->
             Printf.sprintf "$%s is {%s} on the source side but {%s} on the \
                             target side"
               x (String.concat "," src) (String.concat "," tgt))
           vars)

(* Why is there no [from_uri -> to_uri] link?  One diagnosis per
   (call, rule) that could in principle have produced it. *)
let missing ~doc ~trace (rb : Strategy.rulebook) ~from_uri ~to_uri :
    diagnosis list =
  let index = Index.build doc in
  Trace.calls trace
  |> List.concat_map (fun (call : Trace.call) ->
         if call.Trace.time = 0 then []
         else
           Strategy.rules_for rb call.Trace.service
           |> List.filter_map (fun rule ->
                  if Mapping.is_skolem_rule rule then None
                  else begin
                    let d = Doc_state.at doc (call.Trace.time - 1) in
                    let d' = Doc_state.at doc call.Trace.time in
                    let values t col =
                      Table.rows t
                      |> List.map (fun row -> Value.to_string (Table.get t row col))
                      |> List.sort_uniq compare
                    in
                    let rs, rt = tables index rule d d' in
                    let src_rows =
                      List.filter (fun r -> Value.to_string (Table.get rs r "in") = to_uri)
                        (Table.rows rs)
                    in
                    let tgt_rows =
                      List.filter
                        (fun r -> Value.to_string (Table.get rt r "out") = from_uri)
                        (Table.rows rt)
                    in
                    let diag failure = Some { d_rule = Rule.name rule; d_call = call; failure } in
                    if not (Mapping.generated_by doc call from_uri) then
                      diag Wrong_call
                    else if src_rows = [] then diag Source_no_match
                    else if tgt_rows = [] then diag Target_no_match
                    else begin
                      (* both sides matched: the join variables disagree *)
                      let shared = Rule.join_variables rule in
                      let mismatches =
                        shared
                        |> List.filter_map (fun x ->
                               let sv = values rs x and tv = values rt x in
                               let overlap = List.exists (fun v -> List.mem v tv) sv in
                               if overlap then None else Some (x, sv, tv))
                      in
                      if mismatches = [] then None  (* link actually exists *)
                      else diag (Join_mismatch mismatches)
                    end
                  end))
