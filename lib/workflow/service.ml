(* Black-box services (§2): a service call receives the WebLab document and
   extends it with new resources.  Two integration modes are offered:

   - [Inproc]: the service works directly on the shared arena through the
     {!Weblab_xml.Tree} API.  The orchestrator still verifies it only
     appended (and at most promoted nodes to resources by adding an "id").
   - [Blackbox]: the service is a function from serialized XML to
     serialized XML — the faithful web-service picture.  The Recorder
     matches the result's parser events against the arena in one pass
     (the paper's "standard XML-diff service", {!Weblab_xml.Diff.graft})
     and appends the added fragments.
   - [Blackbox_doc]: the streaming variant — the service yields the next
     document state's text (typically a request's escaped body, read in
     place) without being handed the live document, so the Recorder
     never serializes it as a pseudo-input. *)

open Weblab_xml

type impl =
  | Inproc of (Tree.t -> unit)
  | Blackbox of (string -> string)
  | Blackbox_doc of (unit -> Xml_text.t)

type t = {
  name : string;
  description : string;
  impl : impl;
}

let make ~name ~description impl = { name; description; impl }

let inproc ~name ~description f = make ~name ~description (Inproc f)

let blackbox ~name ~description f = make ~name ~description (Blackbox f)

let blackbox_doc ~name ~description f = make ~name ~description (Blackbox_doc f)

let name t = t.name

let description t = t.description
