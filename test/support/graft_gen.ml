(* Random document states for the graft's properties: an old arena's
   next state printed with its attributes in arena order, and the states
   a client sends a session that grows its document. *)

open Weblab_xml

let graft_texts =
  [| "x"; "y"; "x y"; "a & b"; "<t>"; "\"q\""; "\xc3\xa9t\xc3\xa9 \xe2\x82\xac";
     "\xf0\x9f\x90\xab" |]

let escape_into b s =
  String.iter
    (function
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s

(* [Printer] sorts attributes; this keeps them in arena order, so a
   repeated name's first binding is the one the state was built with.
   [attrs] may change an element's attributes, [before] writes what goes
   before a child (its parent and index given), and [at_end] what goes
   after an element's last child. *)
let state_xml ?(attrs = fun _ a -> a) ?(before = fun _ _ _ -> ())
    ?(at_end = fun _ _ -> ()) ?from doc =
  let b = Buffer.create 1024 in
  let rec go n =
    if Tree.is_text doc n then escape_into b (Tree.text doc n)
    else begin
      Printf.bprintf b "<%s" (Tree.name doc n);
      List.iter
        (fun (k, v) ->
          Printf.bprintf b " %s=\"" k;
          escape_into b v;
          Buffer.add_char b '"')
        (attrs n (Tree.attrs doc n));
      Buffer.add_char b '>';
      let i = ref 0 in
      Tree.iter_children doc n (fun c ->
          before b n !i;
          incr i;
          go c);
      at_end b n;
      Printf.bprintf b "</%s>" (Tree.name doc n)
    end
  in
  go (Option.value from ~default:(Tree.root doc));
  Buffer.contents b

(* A client's next state: the arena it holds, printed as it was told
   about it (ids and s/t labels echoed) in a layout fixed per session —
   whitespace before some children of the root — with a few edits.
   Units appended at the root's end are the common case; now and then a
   node is promoted, a unit or a non-blank text goes between children of
   the root, or a fragment ends a matched element.  Then maybe a byte
   is changed or inserted anywhere, the state is cut short, or junk
   follows its root. *)
let client_state st ~layout ~step doc =
  let root = Tree.root doc in
  let size = Tree.size doc in
  let kids = List.length (Tree.children doc root) in
  let maybe k bound =
    if Random.State.int st k = 0 then Random.State.int st bound else -1
  in
  let promote = maybe 4 size and nested = maybe 5 size in
  let insert_at = maybe 5 (kids + 1) and text_at = maybe 6 (kids + 1) in
  let uid = ref 0 in
  let unit b =
    incr uid;
    if Random.State.int st 4 > 0 then
      Printf.bprintf b "<Unit id=\"u%d-%d\">" step !uid
    else Buffer.add_string b "<Unit>";
    Buffer.add_string b "<C>";
    escape_into b graft_texts.(Random.State.int st (Array.length graft_texts));
    Buffer.add_string b "</C></Unit>"
  in
  let gap b i = if (i * layout) mod 3 = 0 then Buffer.add_string b "\n  " in
  let between b i =
    gap b i;
    if i = insert_at then unit b;
    if i = text_at then Buffer.add_string b "note"
  in
  let xml =
    state_xml doc
      ~attrs:(fun n a ->
        if n = promote && Tree.is_element doc n && Tree.uri doc n = None then
          a @ [ ("id", Printf.sprintf "p%d-%d" step n) ]
        else a)
      ~before:(fun b p i -> if p = root then between b i)
      ~at_end:(fun b n ->
        if n = nested then Buffer.add_string b "<B k=\"1\">x</B>";
        if n = root then begin
          between b kids;
          for i = 1 to Random.State.int st 4 do
            gap b (kids + i);
            unit b
          done
        end)
  in
  let n = String.length xml in
  let at () = Random.State.int st n in
  let char () = "x< >\"&/".[Random.State.int st 7] in
  match Random.State.int st 20 with
  | 0 ->
    let i = at () in
    String.mapi (fun j c -> if j = i then char () else c) xml
  | 1 ->
    let i = at () in
    String.sub xml 0 i ^ String.make 1 (char ()) ^ String.sub xml i (n - i)
  | 2 -> String.sub xml 0 (at ())
  | 3 -> xml ^ "<"
  | _ -> xml

(* A client that sends its last state again, with what the last call
   appended at the root echoed before the root's end tag: what it sent
   stays a prefix, additions inside it included, although the arena
   holds those additions at the root's end. *)
let resend ~last doc =
  let close = "</Resource>" in
  match String.rindex_opt last '<' with
  | Some i when String.sub last i (String.length last - i) = close ->
    let root = Tree.root doc in
    let t = Tree.created doc (Tree.last_child doc root) in
    let tail =
      List.filter (fun c -> Tree.created doc c = t) (Tree.children doc root)
    in
    String.sub last 0 i
    ^ String.concat "" (List.map (fun c -> state_xml ~from:c doc) tail)
    ^ close
  | _ -> last
