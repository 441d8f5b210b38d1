(* Evaluation of the FLWOR fragment over a WebLab document.

   [for] clauses iterate over the node sequence of a path, [let] clauses
   bind computed values, the [where] conjunction filters, and each
   surviving binding produces one row of the result table. *)

open Weblab_xml
open Weblab_relalg
open Weblab_xquery

exception Unbound_variable of string

type env = {
  nodes : (string * Tree.node) list;   (* for-bound variables *)
  values : (string * Value.t) list;    (* let-bound variables *)
}

let empty_env = { nodes = []; values = [] }

let node_of env v =
  match List.assoc_opt v env.nodes with
  | Some n -> n
  | None -> raise (Unbound_variable ("$" ^ v))

let test_matches doc test n =
  Tree.is_element doc n
  &&
  match (test : Weblab_xpath.Ast.nametest) with
  | Weblab_xpath.Ast.Any -> true
  | Weblab_xpath.Ast.Name name -> String.equal name (Tree.name doc n)

let axis_nodes doc ctx (axis : Weblab_xpath.Ast.axis) =
  let siblings n ~after =
    let p = Tree.parent doc n in
    if p = Tree.no_node then []
    else begin
      let seen = ref false in
      Tree.children doc p
      |> List.filter (fun k ->
             if k = n then begin
               seen := true;
               false
             end
             else if after then !seen
             else not !seen)
    end
  in
  match axis, ctx with
  | Weblab_xpath.Ast.Child, None -> if Tree.has_root doc then [ Tree.root doc ] else []
  | Weblab_xpath.Ast.Child, Some n -> Tree.children doc n
  | (Weblab_xpath.Ast.Descendant | Weblab_xpath.Ast.Descendant_or_self), None ->
    if Tree.has_root doc then Tree.descendant_or_self doc (Tree.root doc) else []
  | Weblab_xpath.Ast.Descendant, Some n -> Tree.descendants doc n
  | Weblab_xpath.Ast.Descendant_or_self, Some n -> Tree.descendant_or_self doc n
  | Weblab_xpath.Ast.Self, None -> if Tree.has_root doc then [ Tree.root doc ] else []
  | Weblab_xpath.Ast.Self, Some n -> [ n ]
  | ( Weblab_xpath.Ast.Parent | Weblab_xpath.Ast.Ancestor
    | Weblab_xpath.Ast.Ancestor_or_self | Weblab_xpath.Ast.Following_sibling
    | Weblab_xpath.Ast.Preceding_sibling ), None -> []
  | Weblab_xpath.Ast.Parent, Some n ->
    let p = Tree.parent doc n in
    if p = Tree.no_node then [] else [ p ]
  | Weblab_xpath.Ast.Ancestor, Some n -> Tree.ancestors doc n
  | Weblab_xpath.Ast.Ancestor_or_self, Some n -> n :: Tree.ancestors doc n
  | Weblab_xpath.Ast.Following_sibling, Some n -> siblings n ~after:true
  | Weblab_xpath.Ast.Preceding_sibling, Some n -> siblings n ~after:false

let eval_path doc env (p : Xq_ast.path) =
  let starts =
    match p.Xq_ast.start with
    | `Root -> [ None ]
    | `Var v -> [ Some (node_of env v) ]
  in
  let finals =
    List.fold_left
      (fun ctxs (axis, test) ->
        List.concat_map
          (fun ctx ->
            axis_nodes doc ctx axis
            |> List.filter (test_matches doc test)
            |> List.map (fun n -> Some n))
          ctxs)
      starts p.Xq_ast.steps
  in
  List.filter_map (fun x -> x) finals

let rec eval_expr doc env (e : Xq_ast.expr) : Value.t option =
  match e with
  | Xq_ast.Attr_of (v, a) ->
    Option.map (fun s -> Value.Str s) (Tree.attr doc (node_of env v) a)
  | Xq_ast.String_lit s -> Some (Value.Str s)
  | Xq_ast.Int_lit i -> Some (Value.Int i)
  | Xq_ast.Var_ref v -> List.assoc_opt v env.values
  | Xq_ast.Skolem_call (f, args) ->
    let vals = List.map (eval_expr doc env) args in
    if List.exists Option.is_none vals then None
    else
      Some
        (Value.Str
           (Printf.sprintf "%s(%s)" f
              (String.concat ","
                 (List.map (fun v -> Value.to_string (Option.get v)) vals))))

let cmp_values (op : Weblab_xpath.Ast.cmpop) a b =
  match op with
  | Weblab_xpath.Ast.Eq -> Value.equal a b
  | Weblab_xpath.Ast.Neq -> not (Value.equal a b)
  | Weblab_xpath.Ast.Lt | Weblab_xpath.Ast.Le | Weblab_xpath.Ast.Gt
  | Weblab_xpath.Ast.Ge -> (
    let c =
      match Value.as_int a, Value.as_int b with
      | Some x, Some y -> compare x y
      | _ -> String.compare (Value.to_string a) (Value.to_string b)
    in
    match op with
    | Weblab_xpath.Ast.Lt -> c < 0
    | Weblab_xpath.Ast.Le -> c <= 0
    | Weblab_xpath.Ast.Gt -> c > 0
    | Weblab_xpath.Ast.Ge -> c >= 0
    | Weblab_xpath.Ast.Eq | Weblab_xpath.Ast.Neq -> assert false)

let rec eval_cond doc env (c : Xq_ast.cond) =
  match c with
  | Xq_ast.Cmp (a, op, b) -> (
    match eval_expr doc env a, eval_expr doc env b with
    | Some va, Some vb -> cmp_values op va vb
    | _ -> false)
  | Xq_ast.Exists p -> eval_path doc env p <> []
  | Xq_ast.Has_attr (v, a) -> Tree.attr doc (node_of env v) a <> None
  | Xq_ast.Path_cmp (p, op, e) -> (
    match eval_expr doc env e with
    | Some v ->
      eval_path doc env p
      |> List.exists (fun n -> cmp_values op (Value.Str (Tree.string_value doc n)) v)
    | None -> false)
  | Xq_ast.And (a, b) -> eval_cond doc env a && eval_cond doc env b
  | Xq_ast.Or (a, b) -> eval_cond doc env a || eval_cond doc env b
  | Xq_ast.Not a -> not (eval_cond doc env a)

let run doc (q : Xq_ast.flwor) : Table.t =
  let cols = List.map fst q.Xq_ast.return_cols in
  let table = Table.create cols in
  let rec loop env clauses =
    match clauses with
    | [] ->
      if List.for_all (eval_cond doc env) q.Xq_ast.where then begin
        let row =
          List.map
            (fun (_, e) ->
              match eval_expr doc env e with
              | Some v -> v
              | None -> Value.Str "")
            q.Xq_ast.return_cols
        in
        Table.add_row table (Array.of_list row)
      end
    | Xq_ast.For (v, p) :: rest ->
      List.iter
        (fun n -> loop { env with nodes = (v, n) :: env.nodes } rest)
        (eval_path doc env p)
    | Xq_ast.Let (v, e) :: rest -> (
      match eval_expr doc env e with
      | Some value -> loop { env with values = (v, value) :: env.values } rest
      | None -> ()   (* a missing binding attribute kills the embedding *))
  in
  loop empty_env q.Xq_ast.clauses;
  Table.distinct table
