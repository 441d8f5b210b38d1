(* Serialization of WebLab documents back to XML text.

   Output goes through a sink (buffer or channel), so Turtle-sized
   documents stream to their destination without an intermediate
   whole-document string.  Escaping takes a fast path that
   memcpy-appends the whole string when it contains nothing to escape
   (the overwhelmingly common case for element content), attributes are
   emitted without any per-attribute sprintf round-trip, and the
   traversal drives an explicit work stack — document depth never
   touches the OCaml call stack. *)

let text_needs_escape s =
  let n = String.length s in
  let rec probe i =
    i < n && (match s.[i] with '&' | '<' | '>' -> true | _ -> probe (i + 1))
  in
  probe 0

let escaped_text_to out_string out_char s =
  if not (text_needs_escape s) then out_string s
  else
    String.iter
      (fun c ->
        match c with
        | '&' -> out_string "&amp;"
        | '<' -> out_string "&lt;"
        | '>' -> out_string "&gt;"
        | c -> out_char c)
      s

let attr_needs_escape s =
  let n = String.length s in
  let rec probe i =
    i < n && (match s.[i] with '&' | '<' | '"' -> true | _ -> probe (i + 1))
  in
  probe 0

let escaped_attr_to out_string out_char s =
  if not (attr_needs_escape s) then out_string s
  else
    String.iter
      (fun c ->
        match c with
        | '&' -> out_string "&amp;"
        | '<' -> out_string "&lt;"
        | '"' -> out_string "&quot;"
        | c -> out_char c)
      s

(* The traversal's pending work: a node to serialize at a depth, or a
   closing tag to emit once the children above it are done.  The [bool]
   records whether any visible child was an element — the close tag of a
   mixed-content element goes on its own indented line. *)
type job =
  | Node of Tree.node * int
  | Close of string * int * bool

(* [visible] restricts printing to a document state (see {!Doc_state}).
   [started] seeds the "anything written yet" flag: indentation inserts a
   newline before every node except the very first thing written. *)
let emit ?(indent = false) ?(visible = fun _ -> true) ~started out_string
    out_char doc node =
  let started = ref started in
  let out_s s =
    if String.length s > 0 then begin
      started := true;
      out_string s
    end
  in
  let out_c c =
    started := true;
    out_char c
  in
  let out_text s = escaped_text_to out_s out_c s in
  (* Attributes are printed sorted so that output is canonical: two
     documents that are [Tree.equal_subtree] print identically. *)
  let out_attrs attrs =
    List.iter
      (fun (k, v) ->
        out_c ' ';
        out_s k;
        out_s "=\"";
        escaped_attr_to out_s out_c v;
        out_c '"')
      (List.sort compare attrs)
  in
  let pad depth =
    if indent then begin
      if !started then out_c '\n';
      out_s (String.make (2 * depth) ' ')
    end
  in
  let stack = ref [ Node (node, 0) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | Close (name, depth, elem_kid) :: rest ->
      stack := rest;
      if indent && elem_kid then begin
        out_c '\n';
        out_s (String.make (2 * depth) ' ')
      end;
      out_s "</";
      out_s name;
      out_c '>'
    | Node (n, depth) :: rest ->
      stack := rest;
      if visible n then begin
        pad depth;
        if Tree.is_text doc n then out_text (Tree.text doc n)
        else begin
          let name = Tree.name doc n in
          let kids = List.filter visible (Tree.children doc n) in
          out_c '<';
          out_s name;
          out_attrs (Tree.attrs doc n);
          if kids = [] then out_s "/>"
          else if indent && List.for_all (fun k -> Tree.is_text doc k) kids
          then begin
            (* Text-only content stays inline, so indentation never leaks
               into string values. *)
            out_c '>';
            List.iter (fun k -> out_text (Tree.text doc k)) kids;
            out_s "</";
            out_s name;
            out_c '>'
          end
          else begin
            out_c '>';
            let elem_kid =
              indent && List.exists (fun k -> Tree.is_element doc k) kids
            in
            stack :=
              List.fold_right
                (fun k acc -> Node (k, depth + 1) :: acc)
                kids
                (Close (name, depth, elem_kid) :: !stack)
          end
        end
      end
  done

let subtree_to_buffer ?indent ?visible buf doc node =
  emit ?indent ?visible
    ~started:(Buffer.length buf > 0)
    (Buffer.add_string buf) (Buffer.add_char buf) doc node

let to_buffer ?indent ?visible buf doc =
  if Tree.has_root doc then
    subtree_to_buffer ?indent ?visible buf doc (Tree.root doc)

let subtree_to_channel ?indent ?visible oc doc node =
  emit ?indent ?visible ~started:false (output_string oc) (output_char oc) doc
    node

let to_channel ?indent ?visible oc doc =
  if Tree.has_root doc then
    subtree_to_channel ?indent ?visible oc doc (Tree.root doc)

let subtree_to_string ?indent ?visible doc node =
  let buf = Buffer.create 256 in
  subtree_to_buffer ?indent ?visible buf doc node;
  Buffer.contents buf

let to_string ?indent ?visible doc =
  if Tree.has_root doc then subtree_to_string ?indent ?visible doc (Tree.root doc)
  else ""
