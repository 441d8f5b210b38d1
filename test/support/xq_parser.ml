(* Parser for the FLWOR fragment the Mapper emits (Examples 8 and 9) —
   the inverse of {!Xq_print}: the queries the paper prints can be read
   back and executed.

   Grammar (keywords written bare):

   {v
   flwor  ::= for binding (, binding)*
              [let letdef (, letdef)*]
              [where cond (and cond)*]
              return constructor
   binding::= $v in path
   letdef ::= $v := expr
   path   ::= [$v] ((/ | //) [axis::] nametest)+
   expr   ::= $v/@name | $v | string | number | f(expr, ...)
   cond   ::= expr CMP expr | path CMP expr | path | $v/@name
            | not(cond) | cond or cond          (and at the top level)
   constructor ::= <prov>{expr} -> {expr}</prov>
                 | <emb> (<n>{expr}</n>)* </emb>
   v} *)

open Weblab_xpath
open Weblab_xquery

exception Error of { pos : int; message : string }

type state = { mutable toks : (Lexer.token * int) list }

let fail st message =
  let pos = match st.toks with (_, p) :: _ -> p | [] -> 0 in
  raise (Error { pos; message })

let peek st = match st.toks with (t, _) :: _ -> t | [] -> Lexer.EOF

let peek2 st = match st.toks with _ :: (t, _) :: _ -> t | _ -> Lexer.EOF

let advance st = match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let expect st tok =
  if peek st = tok then advance st
  else
    fail st
      (Printf.sprintf "expected %s but found %s" (Lexer.token_to_string tok)
         (Lexer.token_to_string (peek st)))

let name st =
  match peek st with
  | Lexer.NAME n -> advance st; n
  | t -> fail st (Printf.sprintf "expected a name, found %s" (Lexer.token_to_string t))

let keyword st k =
  match peek st with
  | Lexer.NAME n when String.equal n k -> advance st
  | t ->
    fail st
      (Printf.sprintf "expected keyword '%s', found %s" k
         (Lexer.token_to_string t))

let variable st =
  expect st Lexer.DOLLAR;
  name st

let nametest st =
  match peek st with
  | Lexer.NAME n -> advance st; Ast.Name n
  | Lexer.STAR -> advance st; Ast.Any
  | t ->
    fail st (Printf.sprintf "expected a name test, found %s" (Lexer.token_to_string t))

let axis_nametest st ~default =
  match peek st, peek2 st with
  | Lexer.NAME n, Lexer.AXISSEP -> (
    match Parser.axis_of_name n with
    | Some axis ->
      advance st;
      advance st;
      (axis, nametest st)
    | None -> fail st (Printf.sprintf "unknown axis %s::" n))
  | _ -> (default, nametest st)

(* Steps after a start ('$v' or root). *)
let path_steps st =
  let rec steps acc =
    match peek st with
    | Lexer.SLASH when peek2 st <> Lexer.AT ->
      advance st;
      let axis, t = axis_nametest st ~default:Ast.Child in
      steps ((axis, t) :: acc)
    | Lexer.DSLASH ->
      advance st;
      let t = nametest st in
      steps ((Ast.Descendant, t) :: acc)
    | _ -> List.rev acc
  in
  steps []

(* An expression or path beginning with a variable: $v, $v/@a, $v/Steps. *)
type var_thing =
  | V_expr of Xq_ast.expr
  | V_path of Xq_ast.path

let var_thing st =
  let v = variable st in
  match peek st, peek2 st with
  | Lexer.SLASH, Lexer.AT ->
    advance st;
    advance st;
    V_expr (Xq_ast.Attr_of (v, name st))
  | (Lexer.SLASH | Lexer.DSLASH), _ ->
    let steps = path_steps st in
    if steps = [] then V_expr (Xq_ast.Var_ref v)
    else V_path { Xq_ast.start = `Var v; steps }
  | _ -> V_expr (Xq_ast.Var_ref v)

let rec expr st : Xq_ast.expr =
  match peek st with
  | Lexer.STRING s -> advance st; Xq_ast.String_lit s
  | Lexer.NUMBER n -> advance st; Xq_ast.Int_lit n
  | Lexer.DOLLAR -> (
    match var_thing st with
    | V_expr e -> e
    | V_path _ -> fail st "a node-set path is not a value expression")
  | Lexer.NAME f when peek2 st = Lexer.LPAREN ->
    advance st;
    advance st;
    let rec args acc =
      if peek st = Lexer.RPAREN then begin
        advance st;
        List.rev acc
      end
      else begin
        let a = expr st in
        match peek st with
        | Lexer.COMMA -> advance st; args (a :: acc)
        | Lexer.RPAREN -> advance st; List.rev (a :: acc)
        | t ->
          fail st
            (Printf.sprintf "expected ',' or ')', found %s"
               (Lexer.token_to_string t))
      end
    in
    Xq_ast.Skolem_call (f, args [])
  | t ->
    fail st (Printf.sprintf "expected an expression, found %s" (Lexer.token_to_string t))

let cmpop_of_token = function
  | Lexer.EQ -> Some Ast.Eq
  | Lexer.NEQ -> Some Ast.Neq
  | Lexer.LT -> Some Ast.Lt
  | Lexer.LE -> Some Ast.Le
  | Lexer.GT -> Some Ast.Gt
  | Lexer.GE -> Some Ast.Ge
  | _ -> None

let rec cond st : Xq_ast.cond =
  let a = or_cond st in
  a

and or_cond st =
  let a = atom_cond st in
  match peek st with
  | Lexer.NAME "or" ->
    advance st;
    Xq_ast.Or (a, or_cond st)
  | _ -> a

and atom_cond st =
  match peek st with
  | Lexer.NAME "not" when peek2 st = Lexer.LPAREN ->
    advance st;
    advance st;
    let c = cond st in
    (* allow 'and' inside not(...) *)
    let rec more c =
      match peek st with
      | Lexer.NAME "and" ->
        advance st;
        more (Xq_ast.And (c, cond st))
      | _ -> c
    in
    let c = more c in
    expect st Lexer.RPAREN;
    Xq_ast.Not c
  | Lexer.LPAREN ->
    advance st;
    let c = cond st in
    let rec more c =
      match peek st with
      | Lexer.NAME "and" ->
        advance st;
        more (Xq_ast.And (c, cond st))
      | _ -> c
    in
    let c = more c in
    expect st Lexer.RPAREN;
    c
  | Lexer.DOLLAR -> (
    match var_thing st with
    | V_expr (Xq_ast.Attr_of (v, a) as e) -> (
      match cmpop_of_token (peek st) with
      | Some op ->
        advance st;
        Xq_ast.Cmp (e, op, expr st)
      | None -> Xq_ast.Has_attr (v, a))
    | V_expr e -> (
      match cmpop_of_token (peek st) with
      | Some op ->
        advance st;
        Xq_ast.Cmp (e, op, expr st)
      | None -> fail st "a bare value is not a condition")
    | V_path p -> (
      match cmpop_of_token (peek st) with
      | Some op ->
        advance st;
        Xq_ast.Path_cmp (p, op, expr st)
      | None -> Xq_ast.Exists p))
  | _ ->
    let e = expr st in
    (match cmpop_of_token (peek st) with
     | Some op ->
       advance st;
       Xq_ast.Cmp (e, op, expr st)
     | None -> fail st "expected a comparison")

(* <prov>{e} -> {e}</prov>  |  <emb><c>{e}</c>...</emb> *)
let constructor st =
  expect st Lexer.LT;
  let tag = name st in
  expect st Lexer.GT;
  let close_tag () =
    expect st Lexer.LT;
    expect st Lexer.SLASH;
    let t = name st in
    if not (String.equal t tag) then
      fail st (Printf.sprintf "mismatched closing tag </%s>" t);
    expect st Lexer.GT
  in
  match tag with
  | "prov" ->
    expect st Lexer.LBRACE;
    let e_in = expr st in
    expect st Lexer.RBRACE;
    expect st Lexer.RARROW;
    expect st Lexer.LBRACE;
    let e_out = expr st in
    expect st Lexer.RBRACE;
    close_tag ();
    [ ("in", e_in); ("out", e_out) ]
  | "emb" ->
    let rec cols acc =
      if peek st = Lexer.LT && peek2 st = Lexer.SLASH then begin
        close_tag ();
        List.rev acc
      end
      else begin
        expect st Lexer.LT;
        let c = name st in
        expect st Lexer.GT;
        expect st Lexer.LBRACE;
        let e = expr st in
        expect st Lexer.RBRACE;
        expect st Lexer.LT;
        expect st Lexer.SLASH;
        let c' = name st in
        if not (String.equal c c') then
          fail st (Printf.sprintf "mismatched </%s>" c');
        expect st Lexer.GT;
        cols ((c, e) :: acc)
      end
    in
    cols []
  | t -> fail st (Printf.sprintf "unknown constructor <%s>" t)

let parse_flwor st : Xq_ast.flwor =
  keyword st "for";
  let rec bindings acc =
    let v = variable st in
    keyword st "in";
    let path =
      match peek st with
      | Lexer.DOLLAR -> (
        match var_thing st with
        | V_path p -> p
        | V_expr (Xq_ast.Var_ref w) -> { Xq_ast.start = `Var w; steps = [] }
        | V_expr _ -> fail st "expected a path after 'in'")
      | Lexer.SLASH | Lexer.DSLASH ->
        { Xq_ast.start = `Root; steps = path_steps st }
      | t ->
        fail st (Printf.sprintf "expected a path, found %s" (Lexer.token_to_string t))
    in
    let acc = Xq_ast.For (v, path) :: acc in
    if peek st = Lexer.COMMA then begin
      advance st;
      bindings acc
    end
    else acc
  in
  let clauses = bindings [] in
  let clauses =
    if peek st = Lexer.NAME "let" then begin
      advance st;
      let rec lets acc =
        let v = variable st in
        expect st Lexer.ASSIGN;
        let e = expr st in
        let acc = Xq_ast.Let (v, e) :: acc in
        if peek st = Lexer.COMMA then begin
          advance st;
          lets acc
        end
        else acc
      in
      lets clauses
    end
    else clauses
  in
  let where =
    if peek st = Lexer.NAME "where" then begin
      advance st;
      let rec conds acc =
        let c = cond st in
        if peek st = Lexer.NAME "and" then begin
          advance st;
          conds (c :: acc)
        end
        else List.rev (c :: acc)
      in
      conds []
    end
    else []
  in
  keyword st "return";
  let return_cols = constructor st in
  { Xq_ast.clauses = List.rev clauses; where; return_cols }

let parse (input : string) : Xq_ast.flwor =
  let toks =
    try Lexer.tokenize input
    with Lexer.Error { pos; message } -> raise (Error { pos; message })
  in
  let st = { toks } in
  let q = parse_flwor st in
  (match peek st with
   | Lexer.EOF -> ()
   | t ->
     fail st
       (Printf.sprintf "trailing input after query: %s" (Lexer.token_to_string t)));
  q
