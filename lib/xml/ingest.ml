(* Streaming ingest: parser events are appended straight into a fresh
   arena by the one event->Tree builder, [Xml_parser.tree_builder].  No
   intermediate DOM, and the caller's read buffer can be reused between
   feeds (the parser copies pending bytes out).  Indexing is a separate
   [Index.build] over the finished document, by whoever evaluates. *)

type t = { doc : Tree.t; st : Xml_parser.state }

let create ?preserve_whitespace () =
  let doc, on_event = Xml_parser.tree_builder () in
  { doc; st = Xml_parser.create ?preserve_whitespace ~on_event () }

let feed t buf pos len = Xml_parser.feed t.st buf pos len

let feed_string t s = Xml_parser.feed_string t.st s

let finish t =
  Xml_parser.finish t.st;
  (* Bulk growth is over: drop the doubling slack before the document
     settles into its long inference-serving life. *)
  Tree.compact t.doc;
  t.doc

let of_string ?preserve_whitespace s =
  let t = create ?preserve_whitespace () in
  feed_string t s;
  (* A pair only because perfbench applies [fst]; the index is always [None]. *)
  (finish t, None)

let of_channel ?preserve_whitespace ?(chunk_size = 65536) ic =
  let t = create ?preserve_whitespace () in
  let buf = Bytes.create chunk_size in
  let rec loop () =
    let k = input ic buf 0 chunk_size in
    if k > 0 then begin
      feed t buf 0 k;
      loop ()
    end
  in
  loop ();
  finish t
