(* Document states (the d_0 ⊑ d_1 ⊑ ... ⊑ d_n of Definition 2).

   Because the arena is append-only and every node records the timestamp of
   the service call that created it, the state of the document at time [t]
   is simply the restriction of the arena to nodes created at or before
   [t].  States are therefore cheap views, not copies. *)

type t = {
  doc : Tree.t;
  time : Tree.timestamp;
}

let at doc time = { doc; time }

let final doc = { doc; time = max_int }

let time s = s.time

let doc s = s.doc

let visible s n = Tree.created s.doc n <= s.time

(* All nodes of the state, document order. *)
let nodes s =
  if not (Tree.has_root s.doc) then []
  else
    Tree.descendant_or_self s.doc (Tree.root s.doc)
    |> List.filter (visible s)

(* Containment d ⊑_uri d' over two states of the same arena: true iff every
   node of [s1] is visible in [s2] — which, for states of one append-only
   document, reduces to comparing times. *)
let contains ~smaller ~larger =
  smaller.doc == larger.doc && smaller.time <= larger.time

(* The bag of resources d' \ d: roots of the fragments added strictly after
   [smaller.time] and at or before [larger.time].  A node is a fragment
   root if it is new but its parent is old (or it is the document root). *)
let added_fragment_roots ~smaller ~larger =
  if smaller.doc != larger.doc then
    invalid_arg "Doc_state.added_fragment_roots: states of different documents";
  nodes larger
  |> List.filter (fun n ->
         Tree.created larger.doc n > smaller.time
         &&
         let p = Tree.parent larger.doc n in
         p = Tree.no_node || Tree.created larger.doc p <= smaller.time)

(* Timestamp monotonicity along ancestor paths: the property §4 of the paper
   relies on to drop temporal tests on intermediate pattern steps. *)
let timestamps_monotonic doc =
  if not (Tree.has_root doc) then true
  else
    Tree.fold_subtree doc (Tree.root doc) ~init:true ~f:(fun ok n ->
        ok
        &&
        let p = Tree.parent doc n in
        p = Tree.no_node || Tree.created doc p <= Tree.created doc n)

(* Reconstruct per-node creation timestamps from the persisted @t labels —
   needed after a document is reloaded from the Resource Repository, since
   arena timestamps are session state, not serialized content.  Every
   resource carries its call's @t; the nodes of its fragment inherit it,
   and nodes above any labeled resource belong to the initial state.  This
   is exact for documents the Recorder produced (fragment roots are always
   labeled resources). *)
let restore_timestamps doc =
  if Tree.has_root doc then begin
    (* Explicit (node, inherited-timestamp) stack: reloaded documents can
       be arbitrarily deep, and each node depends only on its ancestor
       chain, so processing order across siblings is free. *)
    let stack = ref [ (Tree.root doc, 0) ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | (n, inherited) :: rest ->
        stack := rest;
        let t =
          match Tree.attr doc n "t" with
          | Some s ->
            (match int_of_string_opt s with Some t -> t | None -> inherited)
          | None -> inherited
        in
        Tree.set_created doc n t;
        Tree.set_uri_time doc n t;
        Tree.iter_children doc n (fun k -> stack := (k, t) :: !stack)
    done
  end
