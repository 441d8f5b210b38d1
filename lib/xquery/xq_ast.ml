(* Abstract syntax of the XQuery fragment the Mapper generates (§6).

   Mapping rules compile to FLWOR expressions of the shape shown in
   Examples 8 and 9: a block of [for] clauses binding one variable per
   pattern step, [let] clauses for the variable assignments, one [where]
   conjunction, and a constructor returning the provenance links (or the
   embeddings). *)

type axis = Weblab_xpath.Ast.axis

type nametest = Weblab_xpath.Ast.nametest

type path = {
  start : [ `Root | `Var of string ];
  steps : (axis * nametest) list;
}

type expr =
  | Attr_of of string * string       (* $v/@a  *)
  | String_lit of string
  | Int_lit of int
  | Var_ref of string                (* a let-bound value *)
  | Skolem_call of string * expr list

type cond =
  | Cmp of expr * Weblab_xpath.Ast.cmpop * expr
  | Exists of path                   (* some node matches *)
  | Has_attr of string * string      (* $v/@a exists *)
  | Path_cmp of path * Weblab_xpath.Ast.cmpop * expr
      (* existential comparison over the string-values of a node set,
         e.g.  $v/Annotation/Language = 'fr' *)
  | And of cond * cond
  | Or of cond * cond
  | Not of cond

type clause =
  | For of string * path
  | Let of string * expr

type flwor = {
  clauses : clause list;
  where : cond list;                 (* conjunction *)
  (* The element constructor: one column per child element, as in
     <emb><r>{$v2/@id}</r><x>{$x}</x></emb>. *)
  return_cols : (string * expr) list;
}

let for_vars q =
  List.filter_map
    (function For (v, _) -> Some v | Let _ -> None)
    q.clauses

let let_defs q =
  List.filter_map
    (function Let (v, e) -> Some (v, e) | For _ -> None)
    q.clauses
