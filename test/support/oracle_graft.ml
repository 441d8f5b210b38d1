open Weblab_xml

(* Explicit work stack (heap-allocated, not the OCaml call stack), popped
   in the same order a recursion allocates: node, then its children left
   to right. *)
let copy_subtree dst ~src n ~parent =
  let result = ref Tree.no_node in
  let stack = ref [ (n, parent) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (sn, dparent) :: rest ->
      let id =
        if Tree.is_element src sn then
          Tree.new_element dst ~attrs:(Tree.attrs src sn) ~parent:dparent
            (Tree.name src sn)
        else Tree.new_text dst ~parent:dparent (Tree.text src sn)
      in
      Tree.set_created dst id (Tree.created src sn);
      if !result = Tree.no_node then result := id;
      stack :=
        List.fold_left
          (fun acc c -> (c, id) :: acc)
          rest
          (List.rev (Tree.children src sn))
  done;
  !result

exception Violation of string

(* Diff the parsed next state against the arena, adopt URI promotions on
   matched nodes and deep-copy the added fragments in. *)
let graft_new_doc doc new_doc =
  let result =
    try Diff.diff ~old_doc:doc ~new_doc
    with Diff.Not_contained msg -> raise (Violation msg)
  in
  (* new-document node -> arena node, for matched pairs *)
  let to_arena = Hashtbl.create 64 in
  List.iter
    (fun (old_n, new_n) -> Hashtbl.replace to_arena new_n old_n)
    result.Diff.matched;
  let promoted = ref [] in
  List.iter
    (fun (old_n, new_n) ->
      if Tree.is_element doc old_n then
        match Tree.uri doc old_n, Tree.uri new_doc new_n with
        | None, Some u ->
          Tree.set_uri doc old_n u;
          promoted := old_n :: !promoted
        | _ -> ())
    result.Diff.matched;
  let old_size = Tree.size doc in
  List.iter
    (fun { Diff.new_node; parent_in_new } ->
      let parent =
        if parent_in_new = Tree.no_node then Tree.no_node
        else
          match Hashtbl.find_opt to_arena parent_in_new with
          | Some p -> p
          | None ->
            raise
              (Violation
                 "internal: added fragment attached to an unmatched parent")
      in
      ignore (copy_subtree doc ~src:new_doc new_node ~parent))
    result.Diff.added;
  (List.init (Tree.size doc - old_size) (fun i -> old_size + i),
   List.rev !promoted)

let graft doc xml =
  match
    let new_doc =
      try fst (Ingest.of_string xml)
      with Xml_parser.Error _ as e ->
        raise
          (Violation
             ("service returned unparsable XML: " ^ Xml_parser.error_to_string e))
    in
    graft_new_doc doc new_doc
  with
  | r -> Ok r
  | exception Violation msg -> Error msg
