(* The pre-columnar triple store, preserved verbatim as the property-test
   oracle for {!Weblab_rdf.Triple_store} (DESIGN §4j).

   Boxed triples in a reversed assoc list with S/P/O hash indexes; dedup
   keys are full N-Triples strings rebuilt per insert.  Slow and heavy on
   purpose — its observable behaviour (insertion-order results, set
   semantics, BGP solutions) defines the contract the columnar engine
   must reproduce bit-for-bit, including byte-identical Turtle through
   {!Oracle_turtle}. *)

open Weblab_rdf

type triple = Term.t * Term.t * Term.t

module Term_table = Hashtbl.Make (struct
  type t = Term.t

  let equal = Term.equal
  let hash = Term.hash
end)

type t = {
  mutable all : triple list;  (* reversed insertion order *)
  mutable size : int;
  by_subject : triple list ref Term_table.t;
  by_predicate : triple list ref Term_table.t;
  by_object : triple list ref Term_table.t;
  dedup : (string, unit) Hashtbl.t;
}

let create () =
  {
    all = [];
    size = 0;
    by_subject = Term_table.create 64;
    by_predicate = Term_table.create 64;
    by_object = Term_table.create 64;
    dedup = Hashtbl.create 64;
  }

let key (s, p, o) =
  String.concat " " [ Term.to_ntriples s; Term.to_ntriples p; Term.to_ntriples o ]

let index_add table term triple =
  match Term_table.find_opt table term with
  | Some cell -> cell := triple :: !cell
  | None -> Term_table.add table term (ref [ triple ])

let add t ((s, p, o) as triple) =
  let k = key triple in
  if not (Hashtbl.mem t.dedup k) then begin
    Hashtbl.add t.dedup k ();
    t.all <- triple :: t.all;
    t.size <- t.size + 1;
    index_add t.by_subject s triple;
    index_add t.by_predicate p triple;
    index_add t.by_object o triple
  end

let mem t triple = Hashtbl.mem t.dedup (key triple)

let size t = t.size

let triples t = List.rev t.all

let iter t f = List.iter f (triples t)

type pattern = Term.t option * Term.t option * Term.t option

let index_find table term =
  match Term_table.find_opt table term with Some cell -> !cell | None -> []

let matches (s, p, o) (ps, pp, po) =
  (match ps with Some x -> Term.equal x s | None -> true)
  && (match pp with Some x -> Term.equal x p | None -> true)
  && match po with Some x -> Term.equal x o | None -> true

let find t ((ps, pp, po) as pat) =
  (* Choose the most selective bound position; subjects and objects are
     usually more selective than predicates. *)
  let candidates =
    match ps, po, pp with
    | Some s, _, _ -> index_find t.by_subject s
    | None, Some o, _ -> index_find t.by_object o
    | None, None, Some p -> index_find t.by_predicate p
    | None, None, None -> t.all
  in
  List.filter (fun tr -> matches tr pat) (List.rev candidates)

let count t pat = List.length (find t pat)

open Weblab_relalg

let term_value term = Value.Str (Term.to_ntriples term)

(* Evaluate a conjunctive pattern left to right over a [find], returning
   raw variable environments: each step substitutes the current row's
   bindings into the pattern, probes, and binds the still-free
   variables (a variable used twice in one pattern must match the same
   term). *)
let solutions_with find bgp : (string * Term.t) list list =
  List.fold_left
    (fun rows (a, b, c) ->
      List.concat_map
        (fun (env : (string * Term.t) list) ->
          let resolve = function
            | Triple_store.Const term -> Some term
            | Triple_store.Var v -> List.assoc_opt v env
          in
          let pat = (resolve a, resolve b, resolve c) in
          find pat
          |> List.filter_map (fun (s, p, o) ->
                 let bind env (bt, term) =
                   match env, bt with
                   | None, _ -> None
                   | Some env, Triple_store.Const _ -> Some env
                   | Some env, Triple_store.Var v -> (
                     match List.assoc_opt v env with
                     | Some existing ->
                       if Term.equal existing term then Some env else None
                     | None -> Some ((v, term) :: env))
                 in
                 List.fold_left bind (Some env) [ (a, s); (b, p); (c, o) ]))
        rows)
    [ [] ] bgp

let solutions t bgp = solutions_with (find t) bgp

let store_solutions st bgp = solutions_with (Triple_store.find st) bgp

let table_of_solutions vars sols =
  let table = Table.create vars in
  List.iter
    (fun env ->
      Table.add_row table
        (Array.of_list
           (List.map
              (fun v ->
                match List.assoc_opt v env with
                | Some term -> term_value term
                | None -> Value.Str "")
              vars)))
    sols;
  Table.distinct table

let query t bgp =
  table_of_solutions (Triple_store.bgp_variables bgp) (solutions t bgp)
