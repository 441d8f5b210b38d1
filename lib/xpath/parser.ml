(* Recursive-descent parser for XPath patterns (Definition 4).

   Grammar (tokens from {!Lexer}):

   {v
   pattern   ::= ('/' | '//') step (('/' | '//') step)*
   step      ::= nametest ('[' pred ']')*
   nametest  ::= NAME | '*'
   pred      ::= NUMBER                          (positional [1])
               | '$' NAME ':=' source            (variable binding)
               | orexpr
   source    ::= '@' NAME | 'position' '(' ')'
   orexpr    ::= andexpr ('or' andexpr)*
   andexpr   ::= unary ('and' unary)*
   unary     ::= 'not' '(' orexpr ')' | cmp-or-exists
   cmp       ::= operand (CMPOP operand)?
   operand   ::= '@' NAME | STRING | NUMBER | '$' NAME
               | NAME '(' operand (',' operand)* ')'   (Skolem / position())
               | relpath
   relpath   ::= nt (('/' | '//') nt)*        with nt ::= NAME | '*'
   v} *)

exception Error of { pos : int; message : string }

type state = {
  mutable toks : (Lexer.token * int) list;
}

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

let axis_of_name = function
  | "child" -> Some Ast.Child
  | "descendant" -> Some Ast.Descendant
  | "self" -> Some Ast.Self
  | "descendant-or-self" -> Some Ast.Descendant_or_self
  | "parent" -> Some Ast.Parent
  | "ancestor" -> Some Ast.Ancestor
  | "ancestor-or-self" -> Some Ast.Ancestor_or_self
  | "following-sibling" -> Some Ast.Following_sibling
  | "preceding-sibling" -> Some Ast.Preceding_sibling
  | _ -> None

let parse_nametest st =
  match peek st with
  | Lexer.NAME n -> advance st; Ast.Name n
  | Lexer.STAR -> advance st; Ast.Any
  | t ->
    fail st
      (Printf.sprintf "expected an element name or '*' but found %s"
         (Lexer.token_to_string t))

(* An optional explicit "axis::" prefix before a name test; [default] is
   the axis implied by the separator that preceded. *)
let parse_axis_nametest st ~default =
  match peek st, peek2 st with
  | Lexer.NAME n, Lexer.AXISSEP -> (
    match axis_of_name n with
    | Some axis ->
      advance st;
      advance st;
      (axis, parse_nametest st)
    | None -> fail st (Printf.sprintf "unknown axis %s::" n))
  | _ -> (default, parse_nametest st)

(* A relative path, optionally ending in an attribute step (A/B/@c).
   Returns the element steps and the trailing attribute name, if any. *)
let parse_rel_path st first =
  let rec steps acc =
    match peek st with
    | Lexer.SLASH when peek2 st = Lexer.AT ->
      advance st;
      advance st;
      (match peek st with
       | Lexer.NAME a -> advance st; (List.rev acc, Some a)
       | t ->
         fail st
           (Printf.sprintf "expected an attribute name after '/@', found %s"
              (Lexer.token_to_string t)))
    | Lexer.SLASH ->
      advance st;
      let axis, t = parse_axis_nametest st ~default:Ast.Child in
      steps ({ Ast.raxis = axis; rtest = t } :: acc)
    | Lexer.DSLASH ->
      advance st;
      let t = parse_nametest st in
      steps ({ Ast.raxis = Ast.Descendant; rtest = t } :: acc)
    | _ -> (List.rev acc, None)
  in
  steps [ first ]

let cmpop_of_token = function
  | Lexer.EQ -> Some Ast.Eq
  | Lexer.NEQ -> Some Ast.Neq
  | Lexer.LT -> Some Ast.Lt
  | Lexer.LE -> Some Ast.Le
  | Lexer.GT -> Some Ast.Gt
  | Lexer.GE -> Some Ast.Ge
  | _ -> None

let rec parse_operand st =
  match peek st with
  | Lexer.AT ->
    advance st;
    (match peek st with
     | Lexer.NAME a -> advance st; Ast.Attr a
     | t -> fail st (Printf.sprintf "expected an attribute name after '@', found %s"
                       (Lexer.token_to_string t)))
  | Lexer.STRING s -> advance st; Ast.Lit s
  | Lexer.NUMBER n -> advance st; Ast.Num n
  | Lexer.DOLLAR ->
    advance st;
    (match peek st with
     | Lexer.NAME x -> advance st; Ast.Var x
     | t -> fail st (Printf.sprintf "expected a variable name after '$', found %s"
                       (Lexer.token_to_string t)))
  | Lexer.NAME f when peek2 st = Lexer.LPAREN ->
    advance st;
    advance st;
    if peek st = Lexer.RPAREN then begin
      advance st;
      match f with
      | "position" -> Ast.Position
      | "last" -> Ast.Last
      | _ -> Ast.Skolem (f, [])
    end
    else begin
      let rec args acc =
        let a = parse_operand st in
        match peek st with
        | Lexer.COMMA -> advance st; args (a :: acc)
        | Lexer.RPAREN -> advance st; List.rev (a :: acc)
        | t -> fail st (Printf.sprintf "expected ',' or ')' in argument list, found %s"
                          (Lexer.token_to_string t))
      in
      let args = args [] in
      match f, args with
      | "count", [ Ast.Path rp ] -> Ast.Count rp
      | "count", _ -> fail st "count() expects a path argument"
      | "string-length", [ a ] -> Ast.Strlen a
      | "string-length", _ -> fail st "string-length() expects one argument"
      | _ -> Ast.Skolem (f, args)
    end
  | Lexer.NAME _ | Lexer.STAR ->
    let axis, t = parse_axis_nametest st ~default:Ast.Child in
    (match parse_rel_path st { Ast.raxis = axis; rtest = t } with
     | rp, None -> Ast.Path rp
     | rp, Some a -> Ast.Path_attr (rp, a))
  | t ->
    fail st (Printf.sprintf "expected an operand but found %s" (Lexer.token_to_string t))

let rec parse_orexpr st =
  let a = parse_andexpr st in
  match peek st with
  | Lexer.NAME "or" -> advance st; Ast.Or (a, parse_orexpr st)
  | _ -> a

and parse_andexpr st =
  let a = parse_unary st in
  match peek st with
  | Lexer.NAME "and" -> advance st; Ast.And (a, parse_andexpr st)
  | _ -> a

and parse_unary st =
  match peek st with
  | Lexer.NAME "not" when peek2 st = Lexer.LPAREN ->
    advance st;
    advance st;
    let e = parse_orexpr st in
    expect st Lexer.RPAREN;
    Ast.Not e
  | _ ->
    let a = parse_operand st in
    (match cmpop_of_token (peek st) with
     | Some op ->
       advance st;
       Ast.Cmp (a, op, parse_operand st)
     | None -> (
       match a with
       | Ast.Attr name -> Ast.Exists_attr name
       | Ast.Path p -> Ast.Exists_path p
       | Ast.Skolem (("contains" | "starts-with" | "ends-with") as f, args) ->
         Ast.Fn_bool (f, args)
       | _ -> fail st "this operand cannot be used as a boolean predicate"))

let parse_pred st =
  match peek st with
  | Lexer.NUMBER n when peek2 st = Lexer.RBRACKET -> advance st; Ast.Index n
  | Lexer.DOLLAR when
      (match st.toks with
       | _ :: (Lexer.NAME _, _) :: (Lexer.ASSIGN, _) :: _ -> true
       | _ -> false) ->
    advance st;
    let x = match peek st with Lexer.NAME x -> advance st; x | _ -> assert false in
    expect st Lexer.ASSIGN;
    let src = parse_operand st in
    (match src with
     | Ast.Attr _ | Ast.Position -> Ast.Bind (x, src)
     | _ -> fail st "a binding source must be an attribute or position()")
  | _ -> parse_orexpr st

let parse_step st axis =
  let axis, test = parse_axis_nametest st ~default:axis in
  let rec preds acc =
    if peek st = Lexer.LBRACKET then begin
      advance st;
      let p = parse_pred st in
      expect st Lexer.RBRACKET;
      preds (p :: acc)
    end
    else List.rev acc
  in
  { Ast.axis; test; preds = preds [] }

(* Parse a pattern from the current token position; stops at EOF or at a
   token that cannot continue a pattern (e.g. the rule arrow). *)
let parse_pattern_tokens st =
  let leading =
    match peek st with
    | Lexer.SLASH -> advance st; Ast.Child
    | Lexer.DSLASH -> advance st; Ast.Descendant
    | t ->
      fail st
        (Printf.sprintf "a pattern must start with '/' or '//', found %s"
           (Lexer.token_to_string t))
  in
  let first = parse_step st leading in
  let rec more acc =
    match peek st with
    | Lexer.SLASH -> advance st; more (parse_step st Ast.Child :: acc)
    | Lexer.DSLASH -> advance st; more (parse_step st Ast.Descendant :: acc)
    | _ -> List.rev acc
  in
  more [ first ]

let wrap_lexer_error f s =
  match f s with
  | v -> v
  | exception Lexer.Error { pos; message } -> raise (Error { pos; message })

let pattern (s : string) : Ast.pattern =
  wrap_lexer_error
    (fun s ->
      let st = { toks = Lexer.tokenize s } in
      let p = parse_pattern_tokens st in
      (match peek st with
       | Lexer.EOF -> ()
       | t ->
         fail st (Printf.sprintf "trailing input after pattern: %s"
                    (Lexer.token_to_string t)));
      p)
    s
