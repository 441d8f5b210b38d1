(* Structural XML diff between two *independent* documents, used by the
   Recorder for black-box services that return a serialized document (the
   paper's "standard XML-diff service", §6).

   Under append semantics the new document must contain the old one
   (Definition 1's ⊑_uri): the old children of every matched element must
   appear, in order, as a subsequence of the new children.  Matching is
   greedy in document order, pairing each old child with the first
   not-yet-matched new child it embeds into; this is exact whenever
   services append fragments (the WebLab contract) and is the standard
   behaviour of ordered-tree diff under insert-only edits. *)

type edit = {
  new_node : Tree.node;        (* root of an added fragment, in the new doc *)
  parent_in_new : Tree.node;   (* its parent (matched to an old node) *)
}

type result = {
  added : edit list;                         (* in document order *)
  matched : (Tree.node * Tree.node) list;    (* (old node, new node) pairs *)
}

exception Not_contained of string

let not_contained () =
  raise
    (Not_contained
       "new document does not contain the old one (append semantics \
        violated)")

type acc = {
  mutable adds : edit list;
  mutable pairs : (Tree.node * Tree.node) list;
}

(* Does [old] subtree embed into [nw] subtree under insert-only edits?
   On success, appends to [acc] the new-document nodes that are additions
   and the matched (old, new) node pairs. *)
let rec embed old_doc old_n new_doc new_n acc =
  let ok =
    match Tree.is_text old_doc old_n, Tree.is_text new_doc new_n with
    | true, true -> String.equal (Tree.text old_doc old_n) (Tree.text new_doc new_n)
    | false, false ->
      String.equal (Tree.name old_doc old_n) (Tree.name new_doc new_n)
      && attrs_preserved old_doc old_n new_doc new_n
      && children_embed old_doc old_n new_doc new_n acc
    | _ -> false
  in
  if ok then acc.pairs <- (old_n, new_n) :: acc.pairs;
  ok

(* The uri function may gain identifiers but never change them; other
   attributes must be preserved (services only add).  We allow the new
   node to carry extra attributes (e.g. the @s/@t labels the recorder adds). *)
and attrs_preserved old_doc old_n new_doc new_n =
  List.for_all
    (fun (k, v) ->
      match Tree.attr new_doc new_n k with
      | Some v' -> String.equal v v'
      | None -> false)
    (Tree.attrs old_doc old_n)

and children_embed old_doc old_n new_doc new_n acc =
  let new_kids = Array.of_list (Tree.children new_doc new_n) in
  let n = Array.length new_kids in
  let rec loop old_kids j =
    match old_kids with
    | [] ->
      (* All remaining new children are additions. *)
      for k = j to n - 1 do
        acc.adds <- { new_node = new_kids.(k); parent_in_new = new_n } :: acc.adds
      done;
      true
    | ok :: rest ->
      let rec find j =
        if j >= n then false
        else begin
          let saved_adds = acc.adds and saved_pairs = acc.pairs in
          if embed old_doc ok new_doc new_kids.(j) acc then loop rest (j + 1)
          else begin
            acc.adds <- saved_adds;
            acc.pairs <- saved_pairs;
            acc.adds <-
              { new_node = new_kids.(j); parent_in_new = new_n } :: acc.adds;
            find (j + 1)
          end
        end
      in
      find j
  in
  loop (Tree.children old_doc old_n) 0

(* [diff ~old_doc ~new_doc] returns the added fragments and the node
   correspondence, or raises {!Not_contained} when the new document does
   not contain the old one (an append-semantics violation). *)
let diff ~old_doc ~new_doc =
  if not (Tree.has_root old_doc) then
    if Tree.has_root new_doc then
      { added = [ { new_node = Tree.root new_doc; parent_in_new = Tree.no_node } ];
        matched = [] }
    else { added = []; matched = [] }
  else begin
    let acc = { adds = []; pairs = [] } in
    if not (embed old_doc (Tree.root old_doc) new_doc (Tree.root new_doc) acc)
    then not_contained ();
    { added = List.rev acc.adds; matched = acc.pairs }
  end

let added ~old_doc ~new_doc = (diff ~old_doc ~new_doc).added

let contains ~old_doc ~new_doc =
  match diff ~old_doc ~new_doc with
  | _ -> true
  | exception Not_contained _ -> false

(* ----- Grafting straight from the parser's events -----

   [graft] runs the same greedy insert-only embedding as [diff], but on
   the next state's parser events, compared in place with the live
   arena: no second arena, no pair table, no copy.  Every open element
   of the next state is either matched (tentatively: its embedding can
   still fail at its end tag, when old children are left over) or inside
   an added fragment.  Only two kinds of events are kept: those of added
   fragments, and those of a subtree below the root still being matched,
   which a failed embedding replays as one addition.  The root needs no
   replay — its failure is the whole state's — so when a child of the
   root embeds, its matched events are dropped and only the fragments
   inside it stay.

   Nothing touches the arena before the parser's [finish]: a malformed
   state raises its parse error, a non-contained one [Not_contained],
   and either leaves the arena as it was.  Then promotions are adopted
   in [diff]'s pair order (latest completed pair first) and the kept
   fragments appended in document order, node for node as a copy of
   their parsed subtrees would be. *)

(* ----- Resuming after the prefix a state shares with the last one -----

   While nothing has been added or promoted yet, every end tag of a
   child of the root leaves the graft in one state: the root frame
   alone, its cursor on the matched child's next sibling, no kept event.
   Each such end tag is a mark (the parser's position just past its
   '>', and the arena node matched).  The next state that repeats the
   accepted one's bytes up to a mark repeats its events up to there, and
   the arena nodes they matched are unchanged: a commit appends
   fragments as last children and writes only to nodes it appended or
   promoted, all past the first mark-breaking event.  So the next graft
   starts the parser just past the last mark inside the shared prefix,
   with the root frame set as it stood there.  A root without a URI
   leaves no marks: promoting it would write before every mark. *)

(* Marks are kept in the state's raw bytes too: a state that arrives as
   a JSON string body is compared with the accepted one, and read from a
   mark on, without decoding what comes before.  A mark's [raw] offset
   (relative to the body) is just past the bytes that decoded to its
   '>', an escape's included, so the bytes before it decode alike in
   every state that repeats them. *)
type mark = { raw : int; at : Xml_parser.position; node : Tree.node }

type resume = {
  src : Xml_text.t;  (* the accepted state *)
  marks : mark array;  (* in document order *)
  mutable probed : string;  (* the line [resume_offset] last compared, *)
  mutable probed_off : int;  (* its body's offset, *)
  mutable probed_marks : int;  (* and the marks inside the shared prefix *)
}

let no_mark =
  { raw = 0; at = { Xml_parser.offset = 0; line = 0; col = 0 };
    node = Tree.no_node }

let c_bytes = Weblab_obs.Telemetry.counter "diff.graft.bytes"
let c_parsed = Weblab_obs.Telemetry.counter "diff.graft.parsed"

type frame = {
  old : Tree.node;
  mutable cur : Tree.node;  (* the next old child still to embed *)
  new_attrs : (string * string) list;
  start : int;  (* index of its Start_element in the kept events *)
  frags_at : (Tree.node * int * int) list;  (* kept fragments when it opened *)
  n_frags_at : int;
  promos_at : (Tree.node * string) list;  (* promotions when it opened *)
}

type graft = {
  doc : Tree.t;
  mutable ev : Xml_parser.event array;  (* kept events, [0, ev_n) *)
  mutable ev_n : int;
  mutable frags : (Tree.node * int * int) list;
      (* (arena parent, first event, end), latest first *)
  mutable n_frags : int;
  mutable promos : (Tree.node * string) list;  (* latest completed first *)
  mutable stack : frame list;  (* matched elements, innermost first *)
  mutable adding : int;  (* open elements of the added fragment, 0 outside *)
  mutable add_parent : Tree.node;
  mutable add_start : int;
  mutable failed : bool;  (* the root cannot embed *)
  mutable parser : Xml_parser.state option;
  marks : mark Vec.t;
  mutable dec : int;  (* decoded bytes fed to the parser so far *)
  mutable shift : int;  (* raw offset - decoded offset, in the piece fed *)
}

let keep g e =
  if g.ev_n = Array.length g.ev then begin
    let ev = Array.make (2 * g.ev_n) e in
    Array.blit g.ev 0 ev 0 g.ev_n;
    g.ev <- ev
  end;
  g.ev.(g.ev_n) <- e;
  g.ev_n <- g.ev_n + 1

let add_fragment g parent start =
  g.frags <- (parent, start, g.ev_n) :: g.frags;
  g.n_frags <- g.n_frags + 1

(* [attrs_preserved] against the attributes of a Start_element event:
   the first binding of a name is the one [Tree.attr] finds on a node
   built from it. *)
let attrs_kept doc old new_attrs =
  Tree.for_all_attrs doc old (fun k v ->
      match List.assoc_opt k new_attrs with
      | Some v' -> String.equal v v'
      | None -> false)

(* A child of the root embedded: its matched events are dropped, and
   the fragments kept inside it slide down over them. *)
let drop_matched g f =
  let rec inside k l acc =
    match l with
    | x :: up when k > 0 -> inside (k - 1) up (x :: acc)
    | _ -> acc
  in
  let pos = ref f.start in
  g.frags <-
    List.fold_left
      (fun acc (p, s, e) ->
        Array.blit g.ev s g.ev !pos (e - s);
        let s' = !pos in
        pos := s' + (e - s);
        (p, s', !pos) :: acc)
      f.frags_at
      (inside (g.n_frags - f.n_frags_at) g.frags []);
  g.ev_n <- !pos

let add_mark g node =
  match g.parser with
  | Some st ->
    let at = Xml_parser.position st in
    Vec.push g.marks { raw = at.offset + g.shift; at; node }
  | None -> ()

let start_adding g parent e =
  g.add_parent <- parent;
  g.add_start <- g.ev_n;
  g.adding <- 1;
  keep g e

let on_event g e =
  if g.failed then ()
  else if g.adding > 0 then begin
    keep g e;
    match e with
    | Xml_parser.Start_element _ -> g.adding <- g.adding + 1
    | Text _ -> ()
    | End_element _ ->
      g.adding <- g.adding - 1;
      if g.adding = 0 then add_fragment g g.add_parent g.add_start
  end
  else
    match e, g.stack with
    | Start_element (name, attrs), [] ->
      if not (Tree.has_root g.doc) then start_adding g Tree.no_node e
      else
        let r = Tree.root g.doc in
        if String.equal (Tree.name g.doc r) name && attrs_kept g.doc r attrs
        then
          g.stack <-
            [ { old = r; cur = Tree.first_child g.doc r; new_attrs = attrs;
                start = g.ev_n; frags_at = g.frags; n_frags_at = g.n_frags;
                promos_at = g.promos } ]
        else g.failed <- true
    | Start_element (name, attrs), p :: _ ->
      let c = p.cur in
      if
        c <> Tree.no_node && Tree.is_element g.doc c
        && String.equal (Tree.name g.doc c) name
        && attrs_kept g.doc c attrs
      then begin
        g.stack <-
          { old = c; cur = Tree.first_child g.doc c; new_attrs = attrs;
            start = g.ev_n; frags_at = g.frags; n_frags_at = g.n_frags;
            promos_at = g.promos }
          :: g.stack;
        keep g e
      end
      else start_adding g p.old e
    | Text s, p :: rest ->
      let c = p.cur in
      if c <> Tree.no_node && Tree.is_text g.doc c
         && String.equal (Tree.text g.doc c) s
      then begin
        p.cur <- Tree.next_sibling g.doc c;
        if rest <> [] then keep g e
      end
      else begin
        let start = g.ev_n in
        keep g e;
        add_fragment g p.old start
      end
    | End_element _, f :: rest ->
      if rest <> [] then keep g e;
      g.stack <- rest;
      if f.cur = Tree.no_node then begin
        (if Tree.uri g.doc f.old = None then
           match List.assoc_opt "id" f.new_attrs with
           | Some u -> g.promos <- (f.old, u) :: g.promos
           | None -> ());
        match rest with
        | [] -> ()
        | p :: up ->
          p.cur <- Tree.next_sibling g.doc f.old;
          if up = [] then begin
            drop_matched g f;
            if g.n_frags = 0 && g.promos = [] then add_mark g f.old
          end
      end
      else begin
        match rest with
        | [] -> g.failed <- true
        | p :: _ ->
          (* Old children are left over: the whole subtree is an
             addition, and whatever it kept or promoted is void. *)
          g.frags <- f.frags_at;
          g.n_frags <- f.n_frags_at;
          g.promos <- f.promos_at;
          add_fragment g p.old f.start
      end
    | (Text _ | End_element _), [] -> ()

(* Append one kept fragment under [parent], as [Xml_parser.tree_builder]
   would have built it. *)
let append g parent s e =
  let stack = ref [ parent ] in
  for i = s to e - 1 do
    match g.ev.(i), !stack with
    | Xml_parser.Start_element (name, attrs), p :: _ ->
      stack := Tree.new_element ~attrs g.doc ~parent:p name :: !stack
    | Text t, p :: _ -> ignore (Tree.new_text g.doc ~parent:p t)
    | End_element _, _ :: up -> stack := up
    | _, [] -> ()
  done

(* The length of the prefix [s.[off .. limit-1]] shares with the raw
   bytes of [t], compared a word at a time. *)
let shared (t : Xml_text.t) s off limit =
  let a = t.raw and ao = t.off in
  let n = min t.len (limit - off) in
  let i = ref 0 in
  while
    !i + 8 <= n
    && Int64.equal
         (String.get_int64_ne a (ao + !i))
         (String.get_int64_ne s (off + !i))
  do
    i := !i + 8
  done;
  while !i < n && String.unsafe_get a (ao + !i) = String.unsafe_get s (off + !i) do
    incr i
  done;
  !i

(* The number of marks wholly inside the first [len] raw bytes. *)
let marks_within marks len =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if marks.(mid).raw <= len then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length marks)

(* The graft of a body [resume_offset] just probed takes its answer
   from the record (once: the record then lets go of the line): the
   shared prefix it measured against the whole rest of the line ends
   inside the body, since a byte shared with the record's body cannot be
   the new body's closing quote. *)
let resume_offset r s off =
  if not r.src.escaped then 0
  else begin
    let k = marks_within r.marks (shared r.src s off (String.length s)) in
    r.probed <- s;
    r.probed_off <- off;
    r.probed_marks <- k;
    if k = 0 then 0 else r.marks.(k - 1).raw
  end

let graft ?from ~doc (src : Xml_text.t) =
  let g =
    { doc; ev = Array.make 64 (Xml_parser.End_element ""); ev_n = 0;
      frags = []; n_frags = 0; promos = []; stack = []; adding = 0;
      add_parent = Tree.no_node; add_start = 0; failed = false; parser = None;
      marks = Vec.create ~dummy:no_mark; dec = 0; shift = 0 }
  in
  let k =
    match from with
    | Some r when r.probed == src.raw && r.probed_off = src.off && src.escaped
      ->
      r.probed <- "";
      r.probed_marks
    | Some r when r.src.escaped = src.escaped ->
      marks_within r.marks (shared r.src src.raw src.off (src.off + src.len))
    | _ -> 0
  in
  let st, skip =
    match from with
    | Some r when k > 0 ->
      let m = r.marks.(k - 1) and root = Tree.root doc in
      (* The root has a URI, so its start tag's attributes are never
         read again. *)
      g.stack <-
        [ { old = root; cur = Tree.next_sibling doc m.node; new_attrs = [];
            start = 0; frags_at = []; n_frags_at = 0; promos_at = [] } ];
      for i = 0 to k - 1 do
        Vec.push g.marks r.marks.(i)
      done;
      g.dec <- m.at.offset;
      ( Xml_parser.resume ~on_event:(on_event g) ~at:m.at
          ~open_elements:[ Tree.name doc root ] (),
        m.raw )
    | _ -> (Xml_parser.create ~on_event:(on_event g) (), 0)
  in
  g.parser <- Some st;
  let named_root = Tree.has_root doc && Tree.uri doc (Tree.root doc) <> None in
  let resumed_at = g.dec in
  Xml_text.pieces src skip (fun b off len next ->
      g.dec <- g.dec + len;
      g.shift <- next - src.off - g.dec;
      Xml_parser.feed st b off len);
  Weblab_obs.Telemetry.add c_bytes g.dec;
  Weblab_obs.Telemetry.add c_parsed (g.dec - resumed_at);
  Xml_parser.finish st;
  if g.failed then not_contained ();
  List.iter (fun (n, u) -> Tree.set_uri doc n u) g.promos;
  List.iter (fun (p, s, e) -> append g p s e) (List.rev g.frags);
  let marks =
    if named_root then Array.init (Vec.length g.marks) (Vec.get g.marks)
    else [||]
  in
  ( List.map fst g.promos,
    { src; marks; probed = ""; probed_off = 0; probed_marks = 0 } )
