(** The query optimization of Example 9: when the where clause contains
    [$x1 = $x2] with [$x1 := $v1/@id], [$x2 := $v2/@id], @id a key
    attribute, and $v1/$v2 ranging over the same path, the two
    for-variables denote the same node — so they merge, turning a join
    into a navigation.  Dead lets are then eliminated. *)

val merge_key_joins : ?key_attrs:string list -> Xq_ast.flwor -> Xq_ast.flwor
(** Iterate the merge to a fixpoint, then drop the let-clauses whose
    variable is referenced nowhere.  [key_attrs] defaults to
    [\["id"\]] — the justification being that @id is of type ID.  The
    result equals the unoptimized query's on documents where every
    element on a merged path carries the key and no two share a value
    (tested): the dropped lets no longer reject an element that lacks
    it. *)
