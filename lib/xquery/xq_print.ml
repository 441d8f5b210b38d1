(* Concrete XQuery syntax for compiled queries, in the layout of
   Examples 8 and 9. *)

let nametest_to_string = Weblab_xpath.Print.nametest_to_string

let path_to_string (p : Xq_ast.path) =
  let start = match p.Xq_ast.start with `Root -> "" | `Var v -> "$" ^ v in
  start
  ^ String.concat ""
      (List.map
         (fun (axis, test) ->
           let sep = Weblab_xpath.Print.axis_to_string axis in
           sep ^ nametest_to_string test)
         p.Xq_ast.steps)

let rec expr_to_string (e : Xq_ast.expr) =
  match e with
  | Xq_ast.Attr_of (v, a) -> Printf.sprintf "$%s/@%s" v a
  | Xq_ast.String_lit s -> Printf.sprintf "'%s'" s
  | Xq_ast.Int_lit i -> string_of_int i
  | Xq_ast.Var_ref v -> "$" ^ v
  | Xq_ast.Skolem_call (f, args) ->
    Printf.sprintf "%s(%s)" f (String.concat ", " (List.map expr_to_string args))

let cmpop_to_string = Weblab_xpath.Print.cmpop_to_string

let rec cond_to_string (c : Xq_ast.cond) =
  match c with
  | Xq_ast.Cmp (a, op, b) ->
    Printf.sprintf "%s %s %s" (expr_to_string a) (cmpop_to_string op)
      (expr_to_string b)
  | Xq_ast.Exists p -> path_to_string p
  | Xq_ast.Has_attr (v, a) -> Printf.sprintf "$%s/@%s" v a
  | Xq_ast.Path_cmp (p, op, e) ->
    Printf.sprintf "%s %s %s" (path_to_string p) (cmpop_to_string op)
      (expr_to_string e)
  | Xq_ast.And (a, b) -> Printf.sprintf "%s and %s" (cond_to_string a) (cond_to_string b)
  | Xq_ast.Or (a, b) -> Printf.sprintf "(%s or %s)" (cond_to_string a) (cond_to_string b)
  | Xq_ast.Not a -> Printf.sprintf "not(%s)" (cond_to_string a)

let to_string (q : Xq_ast.flwor) =
  let buf = Buffer.create 256 in
  let fors =
    List.filter_map
      (function
        | Xq_ast.For (v, p) -> Some (Printf.sprintf "$%s in %s" v (path_to_string p))
        | Xq_ast.Let _ -> None)
      q.Xq_ast.clauses
  in
  let lets =
    List.map
      (fun (v, e) -> Printf.sprintf "$%s := %s" v (expr_to_string e))
      (Xq_ast.let_defs q)
  in
  Buffer.add_string buf ("for " ^ String.concat ",\n    " fors ^ "\n");
  if lets <> [] then
    Buffer.add_string buf ("let " ^ String.concat ",\n    " lets ^ "\n");
  if q.Xq_ast.where <> [] then
    Buffer.add_string buf
      ("where "
      ^ String.concat "\n  and " (List.map cond_to_string q.Xq_ast.where)
      ^ "\n");
  (match q.Xq_ast.return_cols with
   | [ ("in", e_in); ("out", e_out) ] ->
     Buffer.add_string buf
       (Printf.sprintf "return <prov>{%s} -> {%s}</prov>" (expr_to_string e_in)
          (expr_to_string e_out))
   | cols ->
     Buffer.add_string buf "return <emb>";
     List.iter
       (fun (c, e) ->
         Buffer.add_string buf (Printf.sprintf "<%s>{%s}</%s>" c (expr_to_string e) c))
       cols;
     Buffer.add_string buf "</emb>");
  Buffer.contents buf
