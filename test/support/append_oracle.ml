(* The append check as it was first written: fingerprint every committed
   node before the call, compare every one after it.  O(document) per
   call, and the parity oracle for {!Weblab_workflow.Orchestrator}'s
   column-based check, which must accept and reject the same calls with
   the same first failing node and the same text. *)

open Weblab_xml
open Weblab_workflow

type fingerprint = {
  f_name : string;
  f_text : string;
  f_attrs : (string * string) list;
  f_parent : Tree.node;
  f_children : Tree.node list;
}

let fingerprint doc n =
  {
    f_name = Tree.name doc n;
    f_text = Tree.text doc n;
    f_attrs = Tree.attrs doc n;
    f_parent = Tree.parent doc n;
    f_children = Tree.children doc n;
  }

let check_fingerprint doc n fp =
  let fail what =
    raise
      (Orchestrator.Append_violation
         (Printf.sprintf "service modified committed node %d (%s)" n what))
  in
  if not (String.equal fp.f_name (Tree.name doc n)) then fail "element name";
  if not (String.equal fp.f_text (Tree.text doc n)) then fail "text content";
  if fp.f_parent <> Tree.parent doc n then fail "parent";
  let kids = Tree.children doc n in
  let rec prefix old cur =
    match old, cur with
    | [], _ -> ()
    | o :: old', c :: cur' -> if o = c then prefix old' cur' else fail "child order"
    | _ :: _, [] -> fail "children removed"
  in
  prefix fp.f_children kids;
  List.iter
    (fun (k, v) ->
      match Tree.attr doc n k with
      | Some v' when String.equal v v' -> ()
      | Some _ -> fail (Printf.sprintf "attribute %s changed" k)
      | None -> fail (Printf.sprintf "attribute %s removed" k))
    fp.f_attrs;
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k fp.f_attrs) && not (String.equal k "id") then
        fail (Printf.sprintf "attribute %s added to committed node" k))
    (Tree.attrs doc n)

(* Every bit of mutable arena state: structure, attributes and both
   timestamp columns.  Printer output would miss created/uri_time, and
   "bit-identical" means exactly this. *)
let arena_fingerprint doc =
  let b = Buffer.create 1024 in
  Printf.bprintf b "size=%d root=%d\n" (Tree.size doc)
    (if Tree.has_root doc then Tree.root doc else Tree.no_node);
  for n = 0 to Tree.size doc - 1 do
    Printf.bprintf b "%d %s parent=%d attrs=%s created=%d uri_time=%d kids=%s\n"
      n
      (if Tree.is_element doc n then "e:" ^ Tree.name doc n
       else "t:" ^ Tree.text doc n)
      (Tree.parent doc n)
      (String.concat ","
         (List.map (fun (k, v) -> k ^ "=" ^ v) (Tree.attrs doc n)))
      (Tree.created doc n) (Tree.uri_time doc n)
      (String.concat "," (List.map string_of_int (Tree.children doc n)))
  done;
  Buffer.contents b

(* Run [f] on [doc] and check it: [Ok (new nodes, promoted nodes)], or
   [Error reason] with the reason text the orchestrator reports for the
   raised exception.  The document is left as [f] left it. *)
let run doc f =
  let old_size = Tree.size doc in
  let fps = Array.init old_size (fun n -> fingerprint doc n) in
  f doc;
  match
    let promoted = ref [] in
    for n = 0 to old_size - 1 do
      check_fingerprint doc n fps.(n);
      if (not (List.mem_assoc "id" fps.(n).f_attrs)) && Tree.uri doc n <> None
      then promoted := n :: !promoted
    done;
    List.rev !promoted
  with
  | promoted ->
    Ok (List.init (Tree.size doc - old_size) (fun i -> old_size + i), promoted)
  | exception Orchestrator.Append_violation m -> Error ("append violation: " ^ m)
  | exception e -> Error (Printexc.to_string e)
