(** Black-box services (§2): a service call receives the WebLab document
    and extends it with new resources — its implementation is never
    inspected by the provenance machinery.

    Two integration modes:
    - [Inproc]: the service works directly on the shared arena through the
      {!Weblab_xml.Tree} API; the orchestrator verifies it only appended
      (and at most promoted nodes to resources).
    - [Blackbox]: the service maps serialized XML to serialized XML — the
      faithful web-service picture; the Recorder matches the result's
      parser events against the arena in one pass
      ({!Weblab_xml.Diff.graft}) and appends the added fragments.
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

val make : name:string -> description:string -> impl -> t

val inproc : name:string -> description:string -> (Tree.t -> unit) -> t

val blackbox : name:string -> description:string -> (string -> string) -> t

val blackbox_doc :
  name:string -> description:string -> (unit -> Xml_text.t) -> t
(** The thunk yields the next state's text; the orchestrator grafts
    it exactly as it grafts [Blackbox] output, unparsable text
    included. *)

val name : t -> string

val description : t -> string
