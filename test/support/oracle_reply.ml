(* The tree-built replies of the serving protocol, kept as the oracle of
   the streamed writer.  The SPARQL half is the evaluator as it stood
   over Term environments: FILTER and ORDER BY on the bound terms'
   lexical forms, projection and DISTINCT on N-Triples strings, LIMIT
   last. *)

open Weblab_rdf
open Weblab_server
open Weblab_relalg
module J = Json

let term_lexical = function
  | Term.Lit (s, _) -> s
  | Term.Iri s -> s
  | Term.Bnode s -> s

let operand_string env = function
  | Sparql.O_var v -> Option.map term_lexical (List.assoc_opt v env)
  | Sparql.O_lit l -> Some l
  | Sparql.O_num n -> Some (string_of_int n)

let compare_strings a b =
  match int_of_string_opt (String.trim a), int_of_string_opt (String.trim b) with
  | Some x, Some y -> compare x y
  | _ -> String.compare a b

let filter_holds env (lhs, op, rhs) =
  match operand_string env lhs, operand_string env rhs with
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

let select store text =
  let q = Sparql.parse text in
  let sols = Oracle_store.store_solutions store q.Sparql.where in
  let sols =
    List.filter (fun env -> List.for_all (filter_holds env) q.Sparql.filters) sols
  in
  match q.Sparql.form with
  | Sparql.Ask -> raise (Sparql.Error "ASK queries return a boolean; use run_result")
  | Sparql.Select (sel, _) ->
    let sols =
      match q.Sparql.order with
      | None -> sols
      | Some { Sparql.by; descending } ->
        let key env =
          match List.assoc_opt by env with Some t -> term_lexical t | None -> ""
        in
        let sorted = List.stable_sort (fun a b -> compare_strings (key a) (key b)) sols in
        if descending then List.rev sorted else sorted
    in
    let vars =
      match sel with
      | Some vars -> vars
      | None -> Triple_store.bgp_variables q.Sparql.where
    in
    let table = Oracle_store.table_of_solutions vars sols in
    (match q.Sparql.limit with
    | None -> table
    | Some n ->
      let limited = Table.create (Table.columns table) in
      List.iteri (fun i row -> if i < n then Table.add_row limited row) (Table.rows table);
      limited)

let id_fields req =
  match J.member "id" req with Some v -> [ ("id", v) ] | None -> []

let ok req fields = J.Obj (id_fields req @ (("ok", J.Bool true) :: fields))

let error req code msg =
  J.Obj
    (id_fields req
    @ [ ("ok", J.Bool false); ("error", J.Str code); ("message", J.Str msg) ])

let sparql req store =
  match select store (Option.get (J.str_member "query" req)) with
  | tbl ->
    let cols = Table.columns tbl in
    let rows =
      List.map
        (fun row ->
          J.List (List.map (fun c -> J.Str (Value.to_string (Table.get tbl row c))) cols))
        (Table.rows tbl)
    in
    ok req [ ("columns", J.List (List.map (fun c -> J.Str c) cols)); ("rows", J.List rows) ]
  | exception Sparql.Error msg -> error req "query_error" msg

let turtle req store = ok req [ ("turtle", J.Str (Turtle.to_turtle store)) ]

let close req (s : Session.stats) store =
  let base =
    [ ("commits", J.Int s.Session.st_commits); ("failed", J.Int s.Session.st_failed);
      ("links", J.Int s.Session.st_links) ]
  in
  let extra =
    if J.bool_member "turtle" req = Some true then
      [ ("turtle", J.Str (Turtle.to_turtle store)) ]
    else []
  in
  ok req (base @ extra)
