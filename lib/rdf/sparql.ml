(* A SPARQL subset — PREFIX declarations, SELECT/ASK over one basic graph
   pattern with FILTER constraints, ORDER BY and LIMIT — sufficient to
   query generated provenance graphs the way the Request Manager
   queries its Sesame SPARQL endpoint.

   Supported grammar:

   {v
   query    ::= prefix* (select | ask)
   select   ::= SELECT [DISTINCT] ( STAR | var+ ) WHERE group
                [ORDER BY [ASC|DESC] var] [LIMIT n]
   ask      ::= ASK group
   group    ::= { (triple | filter)* }
   triple   ::= term term term [.]
   filter   ::= FILTER ( operand CMP operand )
   term     ::= <iri> | prefix:local | ?var | "literal" | a
   operand  ::= ?var | "literal" | number
   CMP      ::= = | != | < | <= | > | >=
   v} *)

exception Error of string

type token =
  | TIri of string
  | TQname of string * string
  | TVar of string
  | TLit of string
  | TNum of int
  | TName of string      (* bare keyword: SELECT, WHERE, PREFIX, a *)
  | TLbrace
  | TRbrace
  | TLparen
  | TRparen
  | TDot
  | TStar
  | TCmp of string
  | TEof

let tokenize s =
  let n = String.length s in
  let rec loop i acc =
    if i >= n then List.rev (TEof :: acc)
    else
      let c = s.[i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then loop (i + 1) acc
      else if c = '{' then loop (i + 1) (TLbrace :: acc)
      else if c = '}' then loop (i + 1) (TRbrace :: acc)
      else if c = '(' then loop (i + 1) (TLparen :: acc)
      else if c = ')' then loop (i + 1) (TRparen :: acc)
      else if c = '.' then loop (i + 1) (TDot :: acc)
      else if c = '*' then loop (i + 1) (TStar :: acc)
      else if c = '!' && i + 1 < n && s.[i + 1] = '=' then
        loop (i + 2) (TCmp "!=" :: acc)
      else if c = '=' then loop (i + 1) (TCmp "=" :: acc)
      else if c = '<' && i + 1 < n && s.[i + 1] = '=' then
        loop (i + 2) (TCmp "<=" :: acc)
      else if c = '>' && i + 1 < n && s.[i + 1] = '=' then
        loop (i + 2) (TCmp ">=" :: acc)
      else if c = '>' then loop (i + 1) (TCmp ">" :: acc)
      else if c >= '0' && c <= '9' then begin
        let rec stop j = if j < n && s.[j] >= '0' && s.[j] <= '9' then stop (j + 1) else j in
        let j = stop i in
        loop j (TNum (int_of_string (String.sub s i (j - i))) :: acc)
      end
      else if c = '<' then begin
        (* "<" starts an IRI unless followed by whitespace, a digit, '=' or
           '?', in which case it is the less-than operator. *)
        if i + 1 < n
           && (s.[i + 1] = ' ' || s.[i + 1] = '\t' || s.[i + 1] = '?'
              || (s.[i + 1] >= '0' && s.[i + 1] <= '9'))
        then loop (i + 1) (TCmp "<" :: acc)
        else
          match String.index_from_opt s i '>' with
          | Some j -> loop (j + 1) (TIri (String.sub s (i + 1) (j - i - 1)) :: acc)
          | None -> raise (Error "unterminated IRI")
      end
      else if c = '?' || c = '$' then begin
        let rec stop j =
          if
            j < n
            && ((s.[j] >= 'a' && s.[j] <= 'z')
               || (s.[j] >= 'A' && s.[j] <= 'Z')
               || (s.[j] >= '0' && s.[j] <= '9')
               || s.[j] = '_')
          then stop (j + 1)
          else j
        in
        let j = stop (i + 1) in
        if j = i + 1 then raise (Error "empty variable name");
        loop j (TVar (String.sub s (i + 1) (j - i - 1)) :: acc)
      end
      else if c = '"' then begin
        let buf = Buffer.create 16 in
        let rec scan j =
          if j >= n then raise (Error "unterminated literal")
          else if s.[j] = '\\' && j + 1 < n then begin
            Buffer.add_char buf s.[j + 1];
            scan (j + 2)
          end
          else if s.[j] = '"' then j + 1
          else begin
            Buffer.add_char buf s.[j];
            scan (j + 1)
          end
        in
        let j = scan (i + 1) in
        loop j (TLit (Buffer.contents buf) :: acc)
      end
      else begin
        (* Bare name, possibly a qname prefix:local. *)
        let is_name_char c =
          (c >= 'a' && c <= 'z')
          || (c >= 'A' && c <= 'Z')
          || (c >= '0' && c <= '9')
          || c = '_' || c = '-'
        in
        let rec stop j = if j < n && is_name_char s.[j] then stop (j + 1) else j in
        let j = stop i in
        if j = i then raise (Error (Printf.sprintf "unexpected character %C" c));
        let name = String.sub s i (j - i) in
        if j < n && s.[j] = ':' then begin
          let k = stop (j + 1) in
          loop k (TQname (name, String.sub s (j + 1) (k - j - 1)) :: acc)
        end
        else loop j (TName name :: acc)
      end
  in
  loop 0 []

type operand =
  | O_var of string
  | O_lit of string
  | O_num of int

type filter = operand * string * operand   (* lhs, cmp, rhs *)

type form =
  | Select of string list option * bool    (* projected vars (None for all), distinct *)
  | Ask

type order = { by : string; descending : bool }

type query = {
  form : form;
  where : (Triple_store.bgp_term * Triple_store.bgp_term * Triple_store.bgp_term) list;
  filters : filter list;
  order : order option;
  limit : int option;
}

let parse text =
  let toks = ref (tokenize text) in
  let peek () = match !toks with t :: _ -> t | [] -> TEof in
  let advance () = match !toks with _ :: rest -> toks := rest | [] -> () in
  let prefixes = ref Prov_vocab.prefixes in
  let is_kw k = function
    | TName name -> String.lowercase_ascii name = k
    | _ -> false
  in
  let keyword k =
    if is_kw k (peek ()) then advance ()
    else raise (Error (Printf.sprintf "expected keyword %s" (String.uppercase_ascii k)))
  in
  (* PREFIX declarations *)
  let rec read_prefixes () =
    if is_kw "prefix" (peek ()) then begin
      advance ();
      match peek () with
      | TQname (p, "") -> (
        advance ();
        match peek () with
        | TIri iri ->
          advance ();
          prefixes := (p, iri) :: !prefixes;
          read_prefixes ()
        | _ -> raise (Error "expected <iri> in PREFIX declaration"))
      | _ -> raise (Error "expected prefix: in PREFIX declaration")
    end
  in
  read_prefixes ();
  (* query form *)
  let form =
    if is_kw "ask" (peek ()) then begin
      advance ();
      Ask
    end
    else begin
      keyword "select";
      let distinct =
        if is_kw "distinct" (peek ()) then begin
          advance ();
          true
        end
        else false
      in
      match peek () with
      | TStar ->
        advance ();
        Select (None, distinct)
      | TVar _ ->
        let rec vars acc =
          match peek () with
          | TVar v ->
            advance ();
            vars (v :: acc)
          | _ -> List.rev acc
        in
        Select (Some (vars []), distinct)
      | _ -> raise (Error "expected '*' or variables after SELECT")
    end
  in
  (match form with
   | Select _ -> keyword "where"
   | Ask -> if is_kw "where" (peek ()) then advance ());
  (match peek () with
   | TLbrace -> advance ()
   | _ -> raise (Error "expected '{' opening the graph pattern"));
  let term () =
    match peek () with
    | TIri iri ->
      advance ();
      Triple_store.Const (Term.Iri iri)
    | TQname (p, local) -> (
      advance ();
      match List.assoc_opt p !prefixes with
      | Some ns -> Triple_store.Const (Term.Iri (ns ^ local))
      | None -> raise (Error (Printf.sprintf "unknown prefix %s:" p)))
    | TVar v ->
      advance ();
      Triple_store.Var v
    | TLit l ->
      advance ();
      Triple_store.Const (Term.Lit (l, None))
    | TName "a" ->
      advance ();
      Triple_store.Const Prov_vocab.rdf_type
    | _ -> raise (Error "expected a term in graph pattern")
  in
  let operand () =
    match peek () with
    | TVar v -> advance (); O_var v
    | TLit l -> advance (); O_lit l
    | TNum n -> advance (); O_num n
    | _ -> raise (Error "expected a variable, literal or number in FILTER")
  in
  let rec group triples filters =
    match peek () with
    | TRbrace ->
      advance ();
      (List.rev triples, List.rev filters)
    | t when is_kw "filter" t ->
      advance ();
      (match peek () with
       | TLparen -> advance ()
       | _ -> raise (Error "expected '(' after FILTER"));
      let lhs = operand () in
      let op =
        match peek () with
        | TCmp c -> advance (); c
        | _ -> raise (Error "expected a comparison operator in FILTER")
      in
      let rhs = operand () in
      (match peek () with
       | TRparen -> advance ()
       | _ -> raise (Error "expected ')' closing FILTER"));
      (match peek () with TDot -> advance () | _ -> ());
      group triples ((lhs, op, rhs) :: filters)
    | _ ->
      let s = term () in
      let p = term () in
      let o = term () in
      (match peek () with
       | TDot -> advance ()
       | TRbrace -> ()
       | t when is_kw "filter" t -> ()
       | _ -> raise (Error "expected '.', FILTER or '}' after a triple pattern"));
      group ((s, p, o) :: triples) filters
  in
  let where, filters = group [] [] in
  (* solution modifiers *)
  let order =
    if is_kw "order" (peek ()) then begin
      advance ();
      keyword "by";
      let descending =
        if is_kw "desc" (peek ()) then begin
          advance ();
          true
        end
        else begin
          if is_kw "asc" (peek ()) then advance ();
          false
        end
      in
      (* allow DESC(?v) / ASC(?v) parenthesized or bare ?v *)
      let parenthesized = peek () = TLparen in
      if parenthesized then advance ();
      match peek () with
      | TVar v ->
        advance ();
        if parenthesized then (match peek () with
          | TRparen -> advance ()
          | _ -> raise (Error "expected ')' after ORDER BY variable"));
        Some { by = v; descending }
      | _ -> raise (Error "expected a variable after ORDER BY")
    end
    else None
  in
  let limit =
    if is_kw "limit" (peek ()) then begin
      advance ();
      match peek () with
      | TNum n -> advance (); Some n
      | _ -> raise (Error "expected a number after LIMIT")
    end
    else None
  in
  (match peek () with
   | TEof -> ()
   | _ -> raise (Error "trailing input after query"));
  { form; where; filters; order; limit }

(* FILTER/ORDER BY compare on the lexical form, numerically when both
   sides are numeric.  Only the terms they compare are decoded. *)
let term_lexical = function
  | Term.Lit (s, _) -> s
  | Term.Iri s -> s
  | Term.Bnode s -> s

let compare_strings a b =
  match int_of_string_opt (String.trim a), int_of_string_opt (String.trim b) with
  | Some x, Some y -> Int.compare x y
  | _ -> String.compare a b

(* The lexical form a variable's column holds in row [r], if bound. *)
let lexical store sol col r =
  if col < 0 then None
  else
    let id = Triple_store.binding sol r col in
    if id = Triple_store.unbound_id then None
    else Some (term_lexical (Triple_store.term_of_id store id))

let column sol v =
  let rec go k = function
    | [] -> -1
    | v' :: rest -> if String.equal v v' then k else go (k + 1) rest
  in
  go 0 (Triple_store.solution_vars sol)

let filter_holds store sol r (lhs, op, rhs) =
  let operand = function
    | O_var v -> lexical store sol (column sol v) r
    | O_lit l -> Some l
    | O_num n -> Some (string_of_int n)
  in
  match operand lhs, operand rhs with
  | Some a, Some b -> (
    let c = compare_strings a b in
    match op with
    | "=" -> c = 0
    | "!=" -> c <> 0
    | "<" -> c < 0
    | "<=" -> c <= 0
    | ">" -> c > 0
    | ">=" -> c >= 0
    | _ -> false)
  | _ -> false

(* An evaluated SELECT: the distinct rows over the store's ids, and the
   N-Triples text of each distinct term, built once, on first use. *)
type rows = {
  store : Triple_store.t;
  sol : Triple_store.solutions;
  texts : (int, string) Hashtbl.t;
}

type evaluated =
  | Selected of rows
  | Asked of bool

(* Solutions that pass every FILTER, as row numbers in solution order. *)
let filtered store (q : query) =
  let sol = Triple_store.solve store q.where in
  let keep r = List.for_all (filter_holds store sol r) q.filters in
  (sol, List.filter keep (List.init (Triple_store.solution_count sol) Fun.id))

let eval store (q : query) =
  let sol, kept = filtered store q in
  match q.form with
  | Ask -> Asked (kept <> [])
  | Select (sel, _distinct) ->
    (* Solutions are always distinct, so the DISTINCT flag changes
       nothing. *)
    let order =
      match q.order with
      | None -> kept
      | Some { by; descending } ->
        (* Each kept row's key, and its numeric reading, once: the
           comparison is [compare_strings] on the keys. *)
        let col = column sol by and n = Triple_store.solution_count sol in
        let key = Array.make n "" and num = Array.make n None in
        List.iter
          (fun r ->
            let k = Option.value ~default:"" (lexical store sol col r) in
            key.(r) <- k;
            num.(r) <- int_of_string_opt (String.trim k))
          kept;
        let cmp a b =
          match num.(a), num.(b) with
          | Some x, Some y -> Int.compare x y
          | _ -> String.compare key.(a) key.(b)
        in
        let sorted = List.stable_sort cmp kept in
        if descending then List.rev sorted else sorted
    in
    let vars =
      match sel with
      | Some vars -> vars
      | None -> Triple_store.bgp_variables q.where
    in
    let limit = Option.value ~default:max_int q.limit in
    Selected
      { store; sol = Triple_store.project sol vars order limit;
        texts = Hashtbl.create 64 }

let ask_error = "ASK queries return a boolean; use run_result"

let select store text =
  match eval store (parse text) with
  | Selected rows -> rows
  | Asked _ -> raise (Error ask_error)

let columns rows = Triple_store.solution_vars rows.sol

let row_count rows = Triple_store.solution_count rows.sol

let cell rows r c =
  let id = Triple_store.binding rows.sol r c in
  if id = Triple_store.unbound_id then ""
  else
    match Hashtbl.find_opt rows.texts id with
    | Some s -> s
    | None ->
      let s = Term.to_ntriples (Triple_store.term_of_id rows.store id) in
      Hashtbl.add rows.texts id s;
      s

let to_table rows =
  let open Weblab_relalg in
  let cols = columns rows in
  let table = Table.create cols in
  let width = List.length cols in
  for r = 0 to row_count rows - 1 do
    Table.add_row table (Array.init width (fun c -> Value.Str (cell rows r c)))
  done;
  table

type result =
  | Solutions of Weblab_relalg.Table.t
  | Boolean of bool

let run_query store q =
  match eval store q with
  | Selected rows -> Solutions (to_table rows)
  | Asked b -> Boolean b

let run_result store text = run_query store (parse text)

let run store text = to_table (select store text)

let ask store text =
  match run_result store text with
  | Boolean b -> b
  | Solutions _ -> raise (Error "expected an ASK query")
