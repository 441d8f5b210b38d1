(* Application of mapping rules — Definitions 8 and 9.

   M(d, d') = π_{$in,$out}( ρ_{$r→$in} R_φS(d) ⋈ ρ_{$r→$out} R_φT(d') )

   M(c)     = M(d_{i-1}, d_i) ⋉ out(c)

   Skolem rules (§5) are detected by an [f(…) = @id] predicate on the
   target's final step: the synthetic term f(v̄) then {e becomes} the
   identifier of the produced entity, and the matched XML nodes become its
   members — the replacement of existentially quantified identifiers by
   function symbols. *)

open Weblab_xml
open Weblab_xpath
open Weblab_relalg
open Weblab_workflow

type application = {
  links : (string * string) list;  (* (out, in): out was derived from in *)
  members : (string * string) list;  (* (skolem entity, member resource) *)
}

let skolem_id_of_target (target : Ast.pattern) =
  match List.rev target with
  | [] -> None
  | last :: _ ->
    List.find_map
      (function
        | Ast.Cmp (Ast.Skolem (f, args), Ast.Eq, Ast.Attr "id")
        | Ast.Cmp (Ast.Attr "id", Ast.Eq, Ast.Skolem (f, args)) -> Some (f, args)
        | _ -> None)
      last.Ast.preds

let is_skolem_rule rule = skolem_id_of_target (Rule.target rule) <> None

(* A node promoted to a resource by a later call ({!Tree.uri_time} past
   its creation) is a resource only from that call on — what a call
   evaluated while it ran could see.  Evaluating a call over the final
   document, where the promoted node already carries its identifier,
   asks this to hide the identifier from earlier calls. *)
let resource_at doc time n =
  let u = Tree.uri_time doc n in
  u <= Tree.created doc n || u <= time

let source_table ?(guards : Eval.guards option) ?resource ?index doc
    (rule : Rule.t) =
  let t = Eval.eval ?guards ?resource ?index doc (Rule.source rule) in
  let vars = Ast.variables (Rule.source rule) in
  Table.project (Table.rename t [ ("r", "in") ]) ("in" :: vars)

(* R_φT with $r renamed to $out (non-Skolem rules only). *)
let target_table ?(guards : Eval.guards option) ?resource ?index doc
    (rule : Rule.t) =
  let target = Rule.target rule in
  if skolem_id_of_target target <> None then
    invalid_arg "Mapping.target_table: Skolem rules need the joined form";
  let vars =
    List.sort_uniq String.compare
      (Ast.variables target @ Ast.free_variables target)
  in
  let vars = List.filter (fun v -> v <> "r" && v <> "node") vars in
  let t = Eval.eval ?guards ?resource ?index doc target in
  Table.project (Table.rename t [ ("r", "out") ]) ("out" :: vars)

(* Target side of a Skolem rule: the skolem predicate is stripped (there is
   no literal @id to match); the synthetic identifier is computed per
   *joined* row, because its arguments may refer to source bindings. *)
let skolem_target_table ?(guards : Eval.guards option) ?resource ?index doc
    (target : Ast.pattern) (f, args) =
  let stripped =
    match List.rev target with
    | [] -> assert false
    | last :: rev_init ->
      let preds =
        List.filter
          (function
            | Ast.Cmp (Ast.Skolem _, Ast.Eq, Ast.Attr "id")
            | Ast.Cmp (Ast.Attr "id", Ast.Eq, Ast.Skolem _) -> false
            | _ -> true)
          last.Ast.preds
      in
      List.rev ({ last with Ast.preds } :: rev_init)
  in
  let vars =
    List.filter (fun v -> v <> "r" && v <> "node")
      (Ast.variables stripped)
  in
  let t = Eval.eval ~require_uri:false ?guards ?resource ?index doc stripped in
  ignore (f, args);
  Table.project
    (Table.rename t [ ("r", "__tgt_r"); ("node", "__tgt_node") ])
    ("__tgt_r" :: "__tgt_node" :: vars)

(* Resolve a Skolem argument against a joined row: variables come from the
   row (source or target bindings), attributes from the target node. *)
let rec skolem_arg_value doc table row (arg : Ast.operand) =
  match arg with
  | Ast.Var v -> (
    match Table.get table row v with
    | value -> Some (Value.to_string value)
    | exception Not_found -> None)
  | Ast.Attr a -> (
    match Table.get table row "__tgt_node" with
    | Value.Node n -> Tree.attr doc n a
    | _ | exception Not_found -> None)
  | Ast.Lit l -> Some l
  | Ast.Num n -> Some (string_of_int n)
  | Ast.Skolem (g, inner) ->
    let vs = List.map (skolem_arg_value doc table row) inner in
    if List.exists Option.is_none vs then None
    else
      Some
        (Printf.sprintf "%s(%s)" g
           (String.concat "," (List.map Option.get vs)))
  | Ast.Position | Ast.Last | Ast.Count _ | Ast.Strlen _ | Ast.Path _
  | Ast.Path_attr _ -> None

(* The join table of Example 6: ρ_in R_φS(d) ⋈ ρ_out R_φT(d'), with the
   shared variables still visible. *)
let join_table (rule : Rule.t) d d' =
  let rs = source_table ~guards:(Eval.state_guards d) (Doc_state.doc d) rule in
  let rt = target_table ~guards:(Eval.state_guards d') (Doc_state.doc d') rule in
  Table.hash_join rs rt

let links_of_table table =
  Table.rows table
  |> List.map (fun row ->
         ( Value.to_string (Table.get table row "out"),
           Value.to_string (Table.get table row "in") ))
  |> List.filter (fun (o, i) -> not (String.equal o i))
  |> List.sort_uniq compare

(* Definition 8 with the source side guarded by [source_visible]:
   [apply_states] passes state d's visibility, the hook for
   non-sequential control flow (§8) the happened-before relation of the
   series-parallel order.  [?index] is the caller's index over the
   (shared) document — parallel inference builds it once up front and
   hands it to every worker; without one, evaluation traverses. *)
let apply_guarded ?index ?resource (rule : Rule.t) ~doc ~source_visible
    ~target_state =
  let doc' = Doc_state.doc target_state in
  let rs =
    source_table ~guards:{ Eval.visible = source_visible; env = [] }
      ?resource ?index doc rule
  in
  let guards = Eval.state_guards target_state in
  match skolem_id_of_target (Rule.target rule) with
  | None ->
    let rt = target_table ~guards ?resource ?index doc' rule in
    let j = Table.hash_join rs rt in
    { links = links_of_table j; members = [] }
  | Some (f, args) ->
    let rt =
      skolem_target_table ~guards ?resource ?index doc' (Rule.target rule)
        (f, args)
    in
    let j = Table.hash_join rs rt in
    let links = ref [] and members = ref [] in
    List.iter
      (fun row ->
        let arg_values = List.map (skolem_arg_value doc' j row) args in
        if not (List.exists Option.is_none arg_values) then begin
          let entity =
            Printf.sprintf "%s(%s)" f
              (String.concat "," (List.map Option.get arg_values))
          in
          let inp = Value.to_string (Table.get j row "in") in
          let member = Value.to_string (Table.get j row "__tgt_r") in
          if not (String.equal entity inp) then
            links := (entity, inp) :: !links;
          members := (entity, member) :: !members
        end)
      (Table.rows j);
    { links = List.sort_uniq compare !links;
      members = List.sort_uniq compare !members }

let apply_states ?index ?resource rule d d' =
  apply_guarded ?index ?resource rule ~doc:(Doc_state.doc d)
    ~source_visible:(Doc_state.visible d) ~target_state:d'

(* Definition 9: keep only links whose target resource was generated by the
   given call.  For Skolem rules the synthetic entity is kept when at least
   one of its members was generated by the call. *)
let restrict_to_generated (app : application) ~generated =
  match app.members with
  | [] -> { app with links = List.filter (fun (o, _) -> generated o) app.links }
  | members ->
    let live_entities =
      members
      |> List.filter_map (fun (e, m) -> if generated m then Some e else None)
      |> List.sort_uniq String.compare
    in
    {
      links = List.filter (fun (o, _) -> List.mem o live_entities) app.links;
      members = List.filter (fun (e, _) -> List.mem e live_entities) members;
    }

(* out(c): a URI names one node, and the call generated it when it
   created that node. *)
let generated_by doc (call : Trace.call) u =
  match Tree.find_resource doc u with
  | Some n -> Tree.created doc n = call.Trace.time
  | None -> false

let apply_call ?source_visible ?index (rule : Rule.t) ~doc
    ~(call : Trace.call) =
  let resource = resource_at doc call.Trace.time in
  let source_visible =
    Option.value source_visible
      ~default:(Doc_state.visible (Doc_state.at doc (call.Trace.time - 1)))
  in
  let app =
    apply_guarded ?index ~resource rule ~doc ~source_visible
      ~target_state:(Doc_state.at doc call.Trace.time)
  in
  restrict_to_generated app ~generated:(generated_by doc call)
