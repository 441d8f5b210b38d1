(* The query optimization of Example 9: when the where clause contains
   [$x1 = $x2] with [$x1 := $v1/@id] and [$x2 := $v2/@id], @id is a node
   identifier (of type ID), and $v1/$v2 range over the same path, the two
   for-variables denote the same node — so $v2 can be merged into $v1,
   turning a join into a navigation.  Dead lets are then eliminated. *)

let path_equal (a : Xq_ast.path) (b : Xq_ast.path) =
  a.Xq_ast.start = b.Xq_ast.start && a.Xq_ast.steps = b.Xq_ast.steps

let subst_path ~from_var ~to_var (p : Xq_ast.path) =
  match p.Xq_ast.start with
  | `Var v when String.equal v from_var -> { p with Xq_ast.start = `Var to_var }
  | `Var _ | `Root -> p

let rec subst_expr ~from_var ~to_var (e : Xq_ast.expr) =
  match e with
  | Xq_ast.Attr_of (v, a) when String.equal v from_var -> Xq_ast.Attr_of (to_var, a)
  | Xq_ast.Attr_of _ | Xq_ast.String_lit _ | Xq_ast.Int_lit _ | Xq_ast.Var_ref _ -> e
  | Xq_ast.Skolem_call (f, args) ->
    Xq_ast.Skolem_call (f, List.map (subst_expr ~from_var ~to_var) args)

let rec subst_cond ~from_var ~to_var (c : Xq_ast.cond) =
  let se = subst_expr ~from_var ~to_var in
  let sp = subst_path ~from_var ~to_var in
  match c with
  | Xq_ast.Cmp (a, op, b) -> Xq_ast.Cmp (se a, op, se b)
  | Xq_ast.Exists p -> Xq_ast.Exists (sp p)
  | Xq_ast.Has_attr (v, a) when String.equal v from_var -> Xq_ast.Has_attr (to_var, a)
  | Xq_ast.Has_attr _ -> c
  | Xq_ast.Path_cmp (p, op, e) -> Xq_ast.Path_cmp (sp p, op, se e)
  | Xq_ast.And (a, b) -> Xq_ast.And (subst_cond ~from_var ~to_var a, subst_cond ~from_var ~to_var b)
  | Xq_ast.Or (a, b) -> Xq_ast.Or (subst_cond ~from_var ~to_var a, subst_cond ~from_var ~to_var b)
  | Xq_ast.Not a -> Xq_ast.Not (subst_cond ~from_var ~to_var a)

let subst_query ~from_var ~to_var (q : Xq_ast.flwor) =
  {
    Xq_ast.clauses =
      List.map
        (function
          | Xq_ast.For (v, p) -> Xq_ast.For (v, subst_path ~from_var ~to_var p)
          | Xq_ast.Let (v, e) -> Xq_ast.Let (v, subst_expr ~from_var ~to_var e))
        q.Xq_ast.clauses;
    where = List.map (subst_cond ~from_var ~to_var) q.Xq_ast.where;
    return_cols =
      List.map (fun (c, e) -> (c, subst_expr ~from_var ~to_var e)) q.Xq_ast.return_cols;
  }

(* One merge step: find an equality join on a key attribute between two
   for-variables ranging over syntactically equal paths. *)
let find_key_join ~key_attrs (q : Xq_ast.flwor) =
  let lets = Xq_ast.let_defs q in
  let fors =
    List.filter_map
      (function Xq_ast.For (v, p) -> Some (v, p) | Xq_ast.Let _ -> None)
      q.Xq_ast.clauses
  in
  let key_source x =
    (* x is a let bound to $v/@key *)
    match List.assoc_opt x lets with
    | Some (Xq_ast.Attr_of (v, a)) when List.mem a key_attrs -> Some (v, a)
    | _ -> None
  in
  List.find_map
    (fun cond ->
      match cond with
      | Xq_ast.Cmp (Xq_ast.Var_ref x1, Weblab_xpath.Ast.Eq, Xq_ast.Var_ref x2) -> (
        match key_source x1, key_source x2 with
        | Some (v1, a1), Some (v2, a2)
          when String.equal a1 a2 && not (String.equal v1 v2) -> (
          match List.assoc_opt v1 fors, List.assoc_opt v2 fors with
          | Some p1, Some p2 when path_equal p1 p2 -> Some (cond, v1, v2)
          | _ -> None)
        | _ -> None)
      | _ -> None)
    q.Xq_ast.where

let rec used_vars_expr (e : Xq_ast.expr) =
  match e with
  | Xq_ast.Var_ref v -> [ v ]
  | Xq_ast.Skolem_call (_, args) -> List.concat_map used_vars_expr args
  | Xq_ast.Attr_of _ | Xq_ast.String_lit _ | Xq_ast.Int_lit _ -> []

let rec used_vars_cond (c : Xq_ast.cond) =
  match c with
  | Xq_ast.Cmp (a, _, b) -> used_vars_expr a @ used_vars_expr b
  | Xq_ast.Path_cmp (_, _, e) -> used_vars_expr e
  | Xq_ast.Exists _ | Xq_ast.Has_attr _ -> []
  | Xq_ast.And (a, b) | Xq_ast.Or (a, b) -> used_vars_cond a @ used_vars_cond b
  | Xq_ast.Not a -> used_vars_cond a

(* Remove let-clauses whose variable is referenced nowhere. *)
let eliminate_dead_lets (q : Xq_ast.flwor) =
  let used =
    List.concat_map used_vars_cond q.Xq_ast.where
    @ List.concat_map (fun (_, e) -> used_vars_expr e) q.Xq_ast.return_cols
    @ List.concat_map (fun (_, e) -> used_vars_expr e) (Xq_ast.let_defs q)
  in
  {
    q with
    Xq_ast.clauses =
      List.filter
        (function
          | Xq_ast.Let (v, _) -> List.mem v used
          | Xq_ast.For _ -> true)
        q.Xq_ast.clauses;
  }

let rec merge_key_joins ?(key_attrs = [ "id" ]) (q : Xq_ast.flwor) =
  match find_key_join ~key_attrs q with
  | None -> eliminate_dead_lets q
  | Some (cond, keep, drop) ->
    let q =
      { q with
        Xq_ast.where = List.filter (fun c -> c != cond) q.Xq_ast.where;
        clauses =
          List.filter
            (function
              | Xq_ast.For (v, _) -> not (String.equal v drop)
              | Xq_ast.Let _ -> true)
            q.Xq_ast.clauses }
    in
    merge_key_joins ~key_attrs (subst_query ~from_var:drop ~to_var:keep q)

