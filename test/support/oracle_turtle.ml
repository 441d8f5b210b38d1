(* The probe-based Turtle renderer {!Weblab_rdf.Turtle} used before it
   rendered from id columns, kept over {!Oracle_store} as the
   byte-identity oracle. *)

open Weblab_rdf

(* First-seen-order deduplication.  Terms are small immutable trees, so
   structural hashing is safe. *)
let dedup_in_order size f =
  let seen : (Term.t, unit) Hashtbl.t = Hashtbl.create size in
  let acc = ref [] in
  f (fun t ->
      if not (Hashtbl.mem seen t) then begin
        Hashtbl.add seen t ();
        acc := t :: !acc
      end);
  List.rev !acc

(* Group triples by subject, then by predicate: one subject probe and
   one (subject, predicate) probe per group. *)
let to_turtle ?(prefixes = Prov_vocab.prefixes) store =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (p, ns) ->
      Buffer.add_string buf "@prefix ";
      Buffer.add_string buf p;
      Buffer.add_string buf ": <";
      Buffer.add_string buf ns;
      Buffer.add_string buf "> .\n")
    prefixes;
  Buffer.add_char buf '\n';
  let term = Turtle.term_to_turtle prefixes in
  let subjects =
    dedup_in_order 64 (fun note ->
        Oracle_store.iter store (fun (s, _, _) -> note s))
  in
  List.iter
    (fun s ->
      let triples = Oracle_store.find store (Some s, None, None) in
      let preds =
        dedup_in_order 8 (fun note ->
            List.iter (fun (_, p, _) -> note p) triples)
      in
      Buffer.add_string buf (term s);
      Buffer.add_char buf '\n';
      List.iteri
        (fun i p ->
          if i > 0 then Buffer.add_string buf " ;\n";
          Buffer.add_string buf "  ";
          Buffer.add_string buf (term p);
          Buffer.add_char buf ' ';
          List.iteri
            (fun j (_, _, o) ->
              if j > 0 then Buffer.add_string buf ", ";
              Buffer.add_string buf (term o))
            (Oracle_store.find store (Some s, Some p, None)))
        preds;
      Buffer.add_string buf " .\n\n")
    subjects;
  Buffer.contents buf

let to_ntriples store =
  let buf = Buffer.create 1024 in
  Oracle_store.iter store (fun (s, p, o) ->
      Buffer.add_string buf (Term.to_ntriples s);
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Term.to_ntriples p);
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Term.to_ntriples o);
      Buffer.add_string buf " .\n");
  Buffer.contents buf
