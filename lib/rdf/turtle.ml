(* Turtle and N-Triples serialization, plus an N-Triples reader used for
   round-trips in tests.  This is the surface the paper's Sesame store
   exposes for exchanging PROV graphs. *)

let abbreviate prefixes iri =
  let rec find = function
    | [] -> None
    | (p, ns) :: rest ->
      let n = String.length ns in
      if String.length iri > n && String.sub iri 0 n = ns then begin
        let local = String.sub iri n (String.length iri - n) in
        (* Only abbreviate when the local part is a plain name. *)
        if
          String.length local > 0
          && String.for_all
               (fun c ->
                 (c >= 'a' && c <= 'z')
                 || (c >= 'A' && c <= 'Z')
                 || (c >= '0' && c <= '9')
                 || c = '_' || c = '-' || c = '.')
               local
          && local.[0] <> '.'
          && local.[String.length local - 1] <> '.'
        then Some (p ^ ":" ^ local)
        else find rest
      end
      else find rest
  in
  find prefixes

let term_to_turtle prefixes = function
  | Term.Iri iri -> (
    match abbreviate prefixes iri with
    | Some qname -> qname
    | None -> String.concat "" [ "<"; iri; ">" ])
  | Term.Bnode b -> "_:" ^ b
  | Term.Lit (s, None) -> String.concat "" [ "\""; Term.escape_lit s; "\"" ]
  | Term.Lit (s, Some dt) -> (
    match abbreviate prefixes dt with
    | Some qname -> String.concat "" [ "\""; Term.escape_lit s; "\"^^"; qname ]
    | None -> String.concat "" [ "\""; Term.escape_lit s; "\"^^<"; dt; ">" ])

(* Each distinct term's text is built once, on first use: [""] marks a
   term not rendered yet (no term renders to the empty string). *)
let text_cache store render =
  let texts = Array.make (Triple_store.term_count store) "" in
  fun id ->
    let s = Array.unsafe_get texts id in
    if s <> "" then s
    else begin
      let s = render (Triple_store.term_of_id store id) in
      texts.(id) <- s;
      s
    end

(* Subjects in first-seen order; within a subject, predicates in
   first-seen order; within a predicate, objects in insertion order.  One
   pass over the subject column chains each triple behind the previous
   one with the same subject.  Each subject's chain is then split into
   per-predicate chains whose heads are stamped with the subject, so the
   whole render is O(triples + terms) and never probes the store.  The
   text goes into [out] as it is produced. *)
let to_sink prefixes store out =
  List.iter
    (fun (p, ns) ->
      Sink.add_string out "@prefix ";
      Sink.add_string out p;
      Sink.add_string out ": <";
      Sink.add_string out ns;
      Sink.add_string out "> .\n")
    prefixes;
  Sink.add_char out '\n';
  let n = Triple_store.size store and terms = Triple_store.term_count store in
  let text = text_cache store (term_to_turtle prefixes) in
  (* Subject chains: [first] holds each subject's first triple, in
     first-seen order; [next] links a triple to its subject's next. *)
  let next = Array.make n (-1) and last = Array.make terms (-1) in
  let first = Array.make n 0 and n_subjects = ref 0 in
  for i = 0 to n - 1 do
    let s = Triple_store.subject_id store i in
    let l = last.(s) in
    if l < 0 then begin
      first.(!n_subjects) <- i;
      incr n_subjects
    end
    else next.(l) <- i;
    last.(s) <- i
  done;
  (* Predicate chains of the current subject, reusing [last] for their
     tails: [stamp.(p)] is the subject whose chain [p_head.(p)] starts. *)
  let stamp = Array.make terms (-1) and p_head = Array.make terms (-1) in
  let p_next = Array.make n (-1) and preds = Array.make n 0 in
  for k = 0 to !n_subjects - 1 do
    let i0 = first.(k) in
    let s = Triple_store.subject_id store i0 in
    let n_preds = ref 0 and i = ref i0 in
    while !i >= 0 do
      let p = Triple_store.predicate_id store !i in
      if stamp.(p) <> s then begin
        stamp.(p) <- s;
        p_head.(p) <- !i;
        preds.(!n_preds) <- p;
        incr n_preds
      end
      else p_next.(last.(p)) <- !i;
      last.(p) <- !i;
      i := next.(!i)
    done;
    Sink.add_string out (text s);
    Sink.add_char out '\n';
    for j = 0 to !n_preds - 1 do
      let p = preds.(j) in
      if j > 0 then Sink.add_string out " ;\n";
      Sink.add_string out "  ";
      Sink.add_string out (text p);
      Sink.add_char out ' ';
      let i = ref p_head.(p) in
      Sink.add_string out (text (Triple_store.object_id store !i));
      while !i <> last.(p) do
        i := p_next.(!i);
        Sink.add_string out ", ";
        Sink.add_string out (text (Triple_store.object_id store !i))
      done
    done;
    Sink.add_string out " .\n\n"
  done

let to_turtle ?(prefixes = Prov_vocab.prefixes) store =
  let buf = Buffer.create 1024 in
  let out = Sink.create ~size:Sink.chunk (Buffer.add_subbytes buf) in
  to_sink prefixes store out;
  Sink.flush out;
  Buffer.contents buf

let to_ntriples store =
  let buf = Buffer.create 1024 in
  let text = text_cache store Term.to_ntriples in
  for i = 0 to Triple_store.size store - 1 do
    Buffer.add_string buf (text (Triple_store.subject_id store i));
    Buffer.add_char buf ' ';
    Buffer.add_string buf (text (Triple_store.predicate_id store i));
    Buffer.add_char buf ' ';
    Buffer.add_string buf (text (Triple_store.object_id store i));
    Buffer.add_string buf " .\n"
  done;
  Buffer.contents buf

exception Parse_error of string

(* Minimal N-Triples reader (IRIs, blank nodes, literals with optional
   datatype).  Language tags are not needed by this code base. *)
let parse_ntriples text =
  let store = Triple_store.create () in
  let rec parse_term s =
    let s = String.trim s in
    let n = String.length s in
    if n = 0 then raise (Parse_error "empty term")
    else if s.[0] = '<' then begin
      match String.index_opt s '>' with
      | Some i -> (Term.Iri (String.sub s 1 (i - 1)), String.sub s (i + 1) (n - i - 1))
      | None -> raise (Parse_error ("unterminated IRI: " ^ s))
    end
    else if n >= 2 && s.[0] = '_' && s.[1] = ':' then begin
      let rec stop i =
        if i >= n || s.[i] = ' ' || s.[i] = '\t' then i else stop (i + 1)
      in
      let i = stop 2 in
      (Term.Bnode (String.sub s 2 (i - 2)), String.sub s i (n - i))
    end
    else if s.[0] = '"' then begin
      let buf = Buffer.create 16 in
      let rec scan i =
        if i >= n then raise (Parse_error ("unterminated literal: " ^ s))
        else if s.[i] = '\\' && i + 1 < n then begin
          (match s.[i + 1] with
           | 'n' -> Buffer.add_char buf '\n'
           | 'r' -> Buffer.add_char buf '\r'
           | 't' -> Buffer.add_char buf '\t'
           | c -> Buffer.add_char buf c);
          scan (i + 2)
        end
        else if s.[i] = '"' then i + 1
        else begin
          Buffer.add_char buf s.[i];
          scan (i + 1)
        end
      in
      let after = scan 1 in
      let rest = String.sub s after (n - after) in
      if String.length rest >= 2 && String.sub rest 0 2 = "^^" then begin
        let rest = String.sub rest 2 (String.length rest - 2) in
        match parse_term rest with
        | Term.Iri dt, rest' -> (Term.Lit (Buffer.contents buf, Some dt), rest')
        | _ -> raise (Parse_error "expected a datatype IRI after ^^")
      end
      else (Term.Lit (Buffer.contents buf, None), rest)
    end
    else raise (Parse_error ("cannot parse term: " ^ s))
  in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         let line = String.trim line in
         if line <> "" && not (String.length line >= 1 && line.[0] = '#') then begin
           let s, rest = parse_term line in
           let p, rest = parse_term rest in
           let o, rest = parse_term rest in
           let rest = String.trim rest in
           if rest <> "." then
             raise (Parse_error ("expected '.' at end of line: " ^ line));
           Triple_store.add store (s, p, o)
         end);
  store
