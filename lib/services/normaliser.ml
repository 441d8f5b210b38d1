(* The Normaliser of Figure 1: turns each raw NativeContent into a clean
   TextMediaUnit/TextContent fragment (markup stripped, whitespace
   collapsed, lowercased), appended under the Resource root.  The source
   NativeContent is promoted to a resource (the r3 promotion of Figure 4)
   and the produced unit points back to it through @src. *)

open Weblab_xml
open Weblab_workflow

let normalize text =
  Textutil.normalize_whitespace (Textutil.strip_markup text) |> Textutil.lowercase

(* NativeContent nodes not yet normalized: no TextMediaUnit points to them. *)
let pending doc =
  let claimed =
    Schema.text_media_units doc
    |> List.filter_map (fun u -> Tree.attr doc u Schema.src_attr)
  in
  Schema.elements doc Schema.native_content
  |> List.filter (fun nc ->
         match Tree.uri doc nc with
         | Some u -> not (List.mem u claimed)
         | None -> true)

let run doc =
  let root = Tree.root doc in
  List.iter
    (fun nc ->
      Schema.ensure_resource doc nc;
      let src = Option.get (Tree.uri doc nc) in
      let unit =
        Schema.new_resource doc ~parent:root Schema.text_media_unit
          ~attrs:[ (Schema.src_attr, src) ]
      in
      let content = Schema.new_resource doc ~parent:unit Schema.text_content in
      ignore (Tree.new_text doc ~parent:content (normalize (Tree.string_value doc nc))))
    (pending doc)

let service =
  Service.inproc ~name:"Normaliser"
    ~description:"normalizes NativeContent into TextMediaUnit/TextContent" run

(* The data-dependency mappings M(Normaliser). *)
let rules =
  [ "N1: //NativeContent[$x := @id] ==> //TextMediaUnit[$x := @src]" ]

(* The same service as a true black box: it receives the serialized
   document, re-parses it, builds the extended document and returns its
   serialization.  The Recorder identifies its outputs through the XML
   diff — the integration mode real WebLab web services use. *)
let blackbox_service =
  Service.blackbox ~name:"Normaliser"
    ~description:"black-box variant of the Normaliser" (fun xml ->
      let doc = Xml_parser.parse xml in
      let root = Tree.root doc in
      List.iter
        (fun nc ->
          (* Promote the source (the diff reports the added @id) and build
             the normalized unit; URIs are left for the Recorder except
             the promotion, which must be stable across the round-trip. *)
          (if Tree.uri doc nc = None then
             Tree.set_uri doc nc (Tree.fresh_uri doc));
          let src = Option.get (Tree.uri doc nc) in
          let unit =
            Tree.new_element doc ~parent:root Schema.text_media_unit
              ~attrs:[ (Schema.src_attr, src) ]
          in
          let content = Tree.new_element doc ~parent:unit Schema.text_content in
          (* Nested resources must carry their own identity: the Recorder
             only auto-identifies fragment roots. *)
          Tree.set_uri doc content (Tree.fresh_uri doc);
          ignore
            (Tree.new_text doc ~parent:content
               (normalize (Tree.string_value doc nc))))
        (pending doc);
      Printer.to_string doc)
