(* Streaming ingest tests: chunk-split invariance of the feed parser
   (events, trees and error positions must not depend on where chunk
   boundaries fall), error line:col against an independent newline
   count, SZXX's hostile parser cases, [Ingest.of_channel] against the
   whole-string [Xml_parser.parse], numeric character reference
   validation, and deep-chain regressions for every iterative
   traversal. *)

open Weblab_xml

let check = Alcotest.check
let check_str = check Alcotest.string
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ---------- helpers ---------- *)

(* Cut [s] at the given positions (any ints; normalized and deduped). *)
let split s cuts =
  let n = String.length s in
  let cuts =
    List.filter (fun c -> c > 0 && c < n) cuts |> List.sort_uniq compare
  in
  let rec go start = function
    | [] -> [ String.sub s start (n - start) ]
    | c :: rest -> String.sub s start (c - start) :: go c rest
  in
  go 0 cuts

(* Outcome of a parse, comparable across chunkings: the canonical print
   of the tree on success, the exact error position and message on
   failure. *)
let outcome_whole s =
  match Xml_parser.parse s with
  | doc -> Ok (Printer.to_string doc)
  | exception Xml_parser.Error { line; col; message } ->
    Error (line, col, message)

let outcome_chunked s cuts =
  match
    let t = Ingest.create () in
    List.iter (Ingest.feed_string t) (split s cuts);
    Ingest.finish t
  with
  | doc -> Ok (Printer.to_string doc)
  | exception Xml_parser.Error { line; col; message } ->
    Error (line, col, message)

let outcome_to_string = function
  | Ok s -> "ok: " ^ s
  | Error (l, c, m) -> Printf.sprintf "error %d:%d %s" l c m

let check_outcome what exp got =
  check_str what (outcome_to_string exp) (outcome_to_string got)

(* ---------- unit tests ---------- *)

(* A document exercising every multi-byte token a chunk boundary can
   split: tags, attributes in both quote styles, entities, numeric
   references, comments, PIs, CDATA and an XML declaration. *)
let tricky =
  "<?xml version=\"1.0\"?><!-- lead --><r a=\"x &amp; y\" b='2'>\n\
   text &lt;one&gt; &#65;&#x1F600;<!-- in --><![CDATA[<raw>&amp;]]>\n\
   <child/>tail<?pi data?></r><!-- trail -->"

let test_one_byte_feed () =
  let whole = outcome_whole tricky in
  (match whole with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "tricky document should parse");
  let t = Ingest.create () in
  String.iter (fun c -> Ingest.feed_string t (String.make 1 c)) tricky;
  let doc = Ingest.finish t in
  check_outcome "1-byte chunks" whole (Ok (Printer.to_string doc))

let test_every_split_of_tricky () =
  let whole = outcome_whole tricky in
  for cut = 0 to String.length tricky do
    check_outcome
      (Printf.sprintf "split at %d" cut)
      whole
      (outcome_chunked tricky [ cut ])
  done

(* The hostile shapes of SZXX's parser test: spaced tag names (which
   this parser rejects), comments and CDATA inside content, [xml:space],
   spaced attribute equals, and a DOCTYPE whose internal subset holds a
   '>' inside a quoted entity value. *)
let szxx_hostile =
  [ "<r>< c >x</c></r>";
    "<r><c>x</ c ></r>";
    "<r>\n    < dimension ref = \"A1:A38\" /></r>";
    "<c> <!-- comment --> <![CDATA[<something />]]> <!-- some other comment -->\n\
     \t\t\t\t\t234<![CDATA[woo\n          hoo]]>\n\t\t\t\t</c>";
    "<w><c> world <v>  woot</v>WORLD <v> hurray </v> </c></w>";
    "<w>\n<dimension ref = \"A1:A38\" test=\"double&quot;quote\" />\n\
     <t xml:space=\"preserve\"> hello!  world <x/>  z </t></w>";
    "<?xml version=\"1.0\" encoding=\"UTF-8\" standalone=\"yes\"?> \
     <!DOCTYPE stylesheet [<!ENTITY nbsp \"<xsl:text>&amp;nbsp;</xsl:text>\">]>\n\
     <!--comment-with-dashes-->\n<worksheet mc:Ignorable=\"x14ac xr\" \
     xr:uid=\"{00000000-0001}\" ></worksheet>" ]

let test_szxx_hostile () =
  let err s = match outcome_whole s with Error e -> Some e | Ok _ -> None in
  check_bool "spaced start-tag name rejected" true
    (err "<r>< c >x</c></r>" = Some (1, 5, "expected a name"));
  check_bool "spaced end-tag name rejected" true
    (err "<r><c>x</ c ></r>" = Some (1, 10, "expected a name"));
  let d = Xml_parser.parse (List.nth szxx_hostile 3) in
  check_str "comments dropped, CDATA kept, one text node"
    "  <something /> \n\t\t\t\t\t234woo\n          hoo\n\t\t\t\t"
    (Tree.string_value d (Tree.root d));
  check_int "c has one text child" 1
    (List.length (Tree.children d (Tree.root d)));
  let d = Xml_parser.parse (List.nth szxx_hostile 5) in
  let t = List.nth (Tree.children d (Tree.root d)) 1 in
  check_str "xml:space is an ordinary attribute name" "preserve"
    (Option.value ~default:"<none>" (Tree.attr d t "xml:space"));
  let dim = List.hd (Tree.children d (Tree.root d)) in
  check_str "spaced '=' accepted" "A1:A38"
    (Option.value ~default:"<none>" (Tree.attr d dim "ref"));
  check_str "entity in attribute decoded" "double\"quote"
    (Option.value ~default:"<none>" (Tree.attr d dim "test"));
  (* The internal subset is skipped whole, its quoted '>' included. *)
  let d = Xml_parser.parse (List.nth szxx_hostile 6) in
  let r = Tree.root d in
  check_str "root after the DOCTYPE" "worksheet" (Tree.name d r);
  check_bool "its attributes, in order" true
    (Tree.attrs d r
     = [ ("mc:Ignorable", "x14ac xr"); ("xr:uid", "{00000000-0001}") ]);
  check_int "no children" 0 (List.length (Tree.children d r));
  check_int "one node" 1 (Tree.size d)

(* DOCTYPE shapes around the internal subset: a '>' or ']' in a quoted
   literal or a comment, an external literal holding '[' and '>', and an
   unterminated subset. *)
let doctypes =
  [ "<!DOCTYPE a [<!-- ]> --><!ENTITY e 'x>y'>]><a/>";
    "<!DOCTYPE a SYSTEM \"a[b>c\"><a>t</a>";
    "<!DOCTYPE a [<!E>\n<!<!-x]>\n<a/>";
    "<!DOCTYPE a [<!ENTITY e \"x\">" ]

let test_doctype_subset () =
  List.iteri
    (fun i s ->
      if i < 3 then
        check_str (Printf.sprintf "%S: root" s) "a"
          (let d = Xml_parser.parse s in
           Tree.name d (Tree.root d)))
    doctypes;
  check_bool "unterminated subset" true
    (outcome_whole (List.nth doctypes 3)
     = Error (1, 29, "unterminated DOCTYPE"))

(* XML 1.0 §4.1 allows &#[0-9]+; and &#x[0-9a-fA-F]+; only: OCaml's
   literal syntax (underscores, a sign, radix prefixes) and an uppercase
   X are malformed references, reported just past their ';'. *)
let malformed_charrefs =
  [ ("<r>&#x4_1;</r>", "#x4_1"); ("<r>&#6_5;</r>", "#6_5");
    ("<r>&#+65;</r>", "#+65"); ("<r>&#0x41;</r>", "#0x41");
    ("<r>&#0b1000001;</r>", "#0b1000001"); ("<r>&#0o101;</r>", "#0o101");
    ("<r>&#X41;</r>", "#X41"); ("<r a='&#-1;'/>", "#-1") ]

let test_error_positions_chunk_invariant () =
  (* Malformed inputs: whatever the error is, it must not move when the
     input arrives in pieces. *)
  let inputs =
    [ "<a>\n<b>\n</c>\n</a>"; "<r"; "<r><x</r>"; "<r>&unknown;</r>";
      "<r>&#0;</r>"; "<r>&#xD800;</r>"; "<r/>x"; "junk"; "";
      "<r a=1/>"; "<r>&#x110000;</r>"; "<r><![CDATA[never closed";
      "<a id=\"x\" id=\"y\"/>"; "<r k='1'\n  j=\"2\" k='3'>t</r>" ]
    @ List.map fst malformed_charrefs @ szxx_hostile @ doctypes
  in
  (* XML 1.0's Unique Att Spec, reported at the repeated name *)
  check_outcome "duplicate attribute"
    (Error (1, 11, "duplicate attribute id"))
    (outcome_whole "<a id=\"x\" id=\"y\"/>");
  check_outcome "duplicate attribute on a later line"
    (Error (2, 9, "duplicate attribute k"))
    (outcome_whole "<r k='1'\n  j=\"2\" k='3'>t</r>");
  List.iter
    (fun s ->
      let whole = outcome_whole s in
      for cut = 0 to String.length s do
        check_outcome
          (Printf.sprintf "%S split at %d" s cut)
          whole
          (outcome_chunked s [ cut ])
      done)
    inputs

let test_charref_validation () =
  let decoded s =
    let doc = Xml_parser.parse s in
    Tree.string_value doc (Tree.root doc)
  in
  check_str "decimal and hex" "AB" (decoded "<r>&#65;&#x42;</r>");
  check_str "astral plane" "\xF0\x9F\x98\x80" (decoded "<r>&#x1F600;</r>");
  check_str "tab survives" "\tx" (decoded "<r>&#9;x</r>");
  let rejected s ref_text =
    match Xml_parser.parse s with
    | _ -> Alcotest.fail (Printf.sprintf "%s should be rejected" ref_text)
    | exception Xml_parser.Error { message; _ } ->
      check_str
        (ref_text ^ " message")
        (Printf.sprintf
           "invalid character reference &%s;: not an XML character" ref_text)
        message
  in
  rejected "<r>&#0;</r>" "#0";
  rejected "<r>&#8;</r>" "#8";
  rejected "<r>&#xD800;</r>" "#xD800";
  rejected "<r>&#xDFFF;</r>" "#xDFFF";
  rejected "<r>&#x110000;</r>" "#x110000";
  rejected "<r a=\"&#xFFFE;\"/>" "#xFFFE";
  List.iter
    (fun (s, ref_text) ->
      check_outcome s
        (Error
           ( 1, String.index s ';' + 2,
             Printf.sprintf "unknown entity &%s;" ref_text ))
        (outcome_whole s))
    malformed_charrefs;
  check_outcome "a long decimal run is an invalid character"
    (Error
       ( 1, 30,
         "invalid character reference &#99999999999999999999999;: not an XML \
          character" ))
    (outcome_whole "<r>&#99999999999999999999999;</r>")

let test_deep_chain () =
  let n = 200_000 in
  let buf = Buffer.create ((3 + 4) * n + 8) in
  for _ = 1 to n do
    Buffer.add_string buf "<A>"
  done;
  Buffer.add_string buf "deep";
  for _ = 1 to n do
    Buffer.add_string buf "</A>"
  done;
  let s = Buffer.contents buf in
  (* Parse streams through the feed machine; no recursion on depth. *)
  let doc = Xml_parser.parse s in
  check_int "size" (n + 1) (Tree.size doc);
  (* Printing drives an explicit work stack. *)
  let printed = Printer.to_string doc in
  check_int "printed length" (String.length s) (String.length printed);
  check_str "roundtrip" s printed;
  (* Channel output takes the same iterative path. *)
  let tmp = Filename.temp_file "weblab" ".xml" in
  let oc = open_out_bin tmp in
  Printer.to_channel oc doc;
  close_out oc;
  let ic = open_in_bin tmp in
  let from_file = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove tmp;
  check_bool "to_channel = to_string" true (String.equal printed from_file);
  (* Copy, structural equality and string-value: explicit stacks too. *)
  let doc2 = Tree.create () in
  let r = Weblab_test_support.Oracle_graft.copy_subtree doc2 ~src:doc (Tree.root doc) ~parent:Tree.no_node in
  check_bool "copy equal" true
    (Tree.equal_subtree doc (Tree.root doc) doc2 r);
  check_str "string_value" "deep" (Tree.string_value doc2 r);
  (* Timestamp restoration walks iteratively as well. *)
  Doc_state.restore_timestamps doc;
  check_int "restored created" 0 (Tree.created doc (Tree.root doc))

let test_to_buffer () =
  let doc = Xml_parser.parse "<r><a k=\"v\">hi</a><b/></r>" in
  let buf = Buffer.create 64 in
  Printer.to_buffer buf doc;
  check_str "to_buffer" (Printer.to_string doc) (Buffer.contents buf);
  let buf2 = Buffer.create 64 in
  Printer.to_buffer ~indent:true buf2 doc;
  check_str "to_buffer indent"
    (Printer.to_string ~indent:true doc)
    (Buffer.contents buf2)

(* ---------- properties ---------- *)

open QCheck

let gen_name = Gen.oneofl [ "A"; "B"; "C"; "D"; "E" ]
let gen_attr_name = Gen.oneofl [ "k"; "v"; "g"; "src" ]
let gen_attr_value = Gen.oneofl [ "1"; "2"; "x &amp; y"; "d\xc3\xa9j\xc3\xa0" ]

let gen_text =
  Gen.oneofl
    [ "hello"; "a &lt; b"; "x &amp; y"; "&#65;&#x1F600;"; "42"; "w w" ]

(* Random XML text built directly (entities stay entities, so chunk
   boundaries can fall inside them). *)
let rec gen_fragment buf depth st =
  let name = gen_name st in
  Buffer.add_char buf '<';
  Buffer.add_string buf name;
  let nattrs = Gen.int_bound 2 st in
  for i = 0 to nattrs - 1 do
    Buffer.add_string buf
      (Printf.sprintf " %s%d=\"%s\"" (gen_attr_name st) i (gen_attr_value st))
  done;
  if depth = 0 || Gen.bool st then Buffer.add_string buf "/>"
  else begin
    Buffer.add_char buf '>';
    let kids = Gen.int_bound 2 st in
    for _ = 1 to kids do
      if Gen.bool st then Buffer.add_string buf (gen_text st);
      gen_fragment buf (depth - 1) st
    done;
    if Gen.bool st then Buffer.add_string buf (gen_text st);
    Buffer.add_string buf "</";
    Buffer.add_string buf name;
    Buffer.add_char buf '>'
  end

let gen_xml : string Gen.t =
 fun st ->
  let buf = Buffer.create 256 in
  if Gen.bool st then Buffer.add_string buf "<!-- p -->";
  Buffer.add_string buf "<R>";
  let kids = 1 + Gen.int_bound 2 st in
  for _ = 1 to kids do
    gen_fragment buf 2 st
  done;
  Buffer.add_string buf "</R>";
  Buffer.contents buf

let gen_cuts = Gen.list_size (Gen.int_bound 12) Gen.nat

let arb_xml_cuts =
  make
    ~print:(fun (s, cuts) ->
      Printf.sprintf "%S cuts=[%s]" s
        (String.concat ";" (List.map string_of_int cuts)))
    (Gen.pair gen_xml gen_cuts)

let prop_chunked_roundtrip =
  Test.make ~name:"chunked feed = whole-string parse" ~count:500 arb_xml_cuts
    (fun (s, cuts) ->
      let cuts = List.map (fun i -> i mod (String.length s + 1)) cuts in
      outcome_chunked s cuts = outcome_whole s)

(* Random corruption of well-formed input: errors (or survival) must be
   identical under re-chunking, position included. *)
let arb_mutated_cuts =
  make
    ~print:(fun (s, cuts) ->
      Printf.sprintf "%S cuts=[%s]" s
        (String.concat ";" (List.map string_of_int cuts)))
    Gen.(
      pair
        (map2
           (fun s (kind, pos, c) ->
             let n = String.length s in
             let pos = pos mod (n + 1) in
             match kind mod 3 with
             | 0 -> String.sub s 0 pos (* truncate *)
             | 1 ->
               (* insert a hostile character *)
               String.sub s 0 pos ^ String.make 1 c
               ^ String.sub s pos (n - pos)
             | _ ->
               (* delete one character *)
               if n = 0 then s
               else
                 let pos = pos mod n in
                 String.sub s 0 pos ^ String.sub s (pos + 1) (n - pos - 1))
           gen_xml
           (triple nat nat
              (oneofl [ '<'; '&'; '>'; '"'; '\''; '/'; ';'; '#'; 'x'; ' ' ])))
        gen_cuts)

let prop_error_chunk_invariant =
  Test.make ~name:"error positions survive re-chunking" ~count:500
    arb_mutated_cuts (fun (s, cuts) ->
      let cuts = List.map (fun i -> i mod (String.length s + 1)) cuts in
      outcome_chunked s cuts = outcome_whole s)

(* A bad byte injected at a known offset, after multi-line text,
   comments, CDATA and attribute values and right after long element,
   attribute and end-tag names: the reported line:col must be an
   independent count of the newlines before that offset, whole and
   under chunk cuts that split the names. *)
let gen_long_name st =
  String.init
    (1 + Gen.int_bound 200 st)
    (fun i ->
      if i = 0 then Gen.oneofl [ 'a'; 'Z'; '_'; ':' ] st
      else Gen.oneofl [ 'a'; 'q'; 'Z'; '0'; '9'; '-'; '.'; '_'; ':' ] st)

(* Character data without markup: no '<', '&', ']' or '-'. *)
let gen_lines st =
  String.init (Gen.int_bound 300 st) (fun _ ->
      Gen.oneofl [ 'w'; ' '; '\n'; '\n'; '\t'; '>'; '"'; '\r'; '\xc3' ] st)

let gen_bad_position st =
  let b = Buffer.create 1024 in
  let lines () = gen_lines st in
  let value () =
    String.map (fun c -> if c = '"' || c = '\'' then 'v' else c) (lines ())
  in
  if Gen.bool st then Buffer.add_string b "<?xml version=\"1.0\"?>\n";
  Printf.bprintf b "<!--%s-->\n<%s" (lines ()) (gen_long_name st);
  for _ = 1 to Gen.int_bound 2 st do
    Printf.bprintf b "\n %s =\n\"%s\"" (gen_long_name st) (value ())
  done;
  Buffer.add_char b '>';
  for _ = 1 to Gen.int_bound 6 st do
    match Gen.int_bound 4 st with
    | 0 -> Buffer.add_string b (lines ())
    | 1 -> Printf.bprintf b "<!--%s-->" (lines ())
    | 2 -> Printf.bprintf b "<![CDATA[%s]]>" (lines ())
    | 3 ->
      let n = gen_long_name st in
      Printf.bprintf b "<%s k='%s'>%s</%s\n>" n (value ()) (lines ()) n
    | _ -> Printf.bprintf b "<%s/>" (gen_long_name st)
  done;
  let name_start = Buffer.length b in
  let message =
    match Gen.int_bound 4 st with
    | 0 ->
      Buffer.add_char b '<';
      "expected a name"
    | 1 ->
      Printf.bprintf b "<%s" (gen_long_name st);
      "expected '>' or '/>'"
    | 2 ->
      Printf.bprintf b "<%s %s" (gen_long_name st) (gen_long_name st);
      "expected '=' after attribute name"
    | 3 ->
      Printf.bprintf b "</%s" (gen_long_name st);
      "expected '>' in closing tag"
    | _ ->
      Printf.bprintf b "<%s a=\"%s\"" (gen_long_name st) (value ());
      "expected '>' or '/>'"
  in
  let off = Buffer.length b in
  Buffer.add_string b "#</x>";
  let s = Buffer.contents b in
  let cuts =
    List.init (1 + Gen.int_bound 3 st) (fun _ ->
        name_start + Gen.int_bound (off - name_start) st)
    @ List.init (Gen.int_bound 4 st) (fun _ -> Gen.int_bound (String.length s) st)
  in
  (s, off, message, cuts)

let prop_error_position_is_newline_count =
  Test.make ~name:"error line:col = newline count up to the bad byte"
    ~count:500
    (make
       ~print:(fun (s, off, m, cuts) ->
         Printf.sprintf "%S off=%d %S cuts=[%s]" s off m
           (String.concat ";" (List.map string_of_int cuts)))
       gen_bad_position)
    (fun (s, off, message, cuts) ->
      let line = ref 1 and col = ref 1 in
      for k = 0 to off - 1 do
        if s.[k] = '\n' then begin
          incr line;
          col := 1
        end
        else incr col
      done;
      let expected = Error (!line, !col, message) in
      outcome_whole s = expected && outcome_chunked s cuts = expected)

(* The channel path reads in [chunk_size] pieces through [input], which
   may return short; the result must print as the whole-string parse. *)
let prop_of_channel_equals_parse =
  Test.make ~name:"of_channel = whole-string parse" ~count:200
    (make
       ~print:(fun (s, k) -> Printf.sprintf "%S chunk_size=%d" s k)
       (Gen.pair gen_xml (Gen.int_range 1 64)))
    (fun (s, chunk_size) ->
      let tmp = Filename.temp_file "weblab_ingest" ".xml" in
      Fun.protect
        ~finally:(fun () -> Sys.remove tmp)
        (fun () ->
          let oc = open_out_bin tmp in
          output_string oc s;
          close_out oc;
          let ic = open_in_bin tmp in
          let doc =
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> Ingest.of_channel ~chunk_size ic)
          in
          String.equal (Printer.to_string doc)
            (Printer.to_string (Xml_parser.parse s))))

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "ingest"
    [ ( "chunking",
        [ Alcotest.test_case "one-byte feed" `Quick test_one_byte_feed;
          Alcotest.test_case "every split of a tricky doc" `Quick
            test_every_split_of_tricky;
          Alcotest.test_case "error positions are chunk-invariant" `Quick
            test_error_positions_chunk_invariant;
          Alcotest.test_case "SZXX hostile cases" `Quick test_szxx_hostile;
          Alcotest.test_case "DOCTYPE internal subset" `Quick
            test_doctype_subset ] );
      ( "charrefs",
        [ Alcotest.test_case "numeric reference validation" `Quick
            test_charref_validation ] );
      ( "depth",
        [ Alcotest.test_case "200k-deep chain" `Quick test_deep_chain ] );
      ( "printer",
        [ Alcotest.test_case "to_buffer" `Quick test_to_buffer ] );
      ( "properties",
        to_alcotest
          [ prop_chunked_roundtrip; prop_error_chunk_invariant;
            prop_error_position_is_newline_count; prop_of_channel_equals_parse
          ] ) ]
