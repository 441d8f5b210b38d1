(* The WebLab document vocabulary used by the service catalog, plus shared
   navigation helpers.  Element names follow Figure 1 of the paper. *)

open Weblab_xml

let resource = "Resource"
let media_unit = "MediaUnit"
let native_content = "NativeContent"
let image_media_unit = "ImageMediaUnit"
let audio_media_unit = "AudioMediaUnit"
let text_media_unit = "TextMediaUnit"
let text_content = "TextContent"
let annotation = "Annotation"
let language = "Language"
let tokens = "Tokens"
let entity = "Entity"
let sentiment = "Sentiment"

(* Attribute linking a derived TextMediaUnit to the unit or content it was
   computed from (set by services, exploited by mapping rules). *)
let src_attr = "src"

let elements doc name =
  if not (Tree.has_root doc) then []
  else
    Tree.descendant_or_self doc (Tree.root doc)
    |> List.filter (fun n -> Tree.is_element doc n && Tree.name doc n = name)

let child_named doc n name =
  List.find_opt
    (fun c -> Tree.is_element doc c && Tree.name doc c = name)
    (Tree.children doc n)

let children_named doc n name =
  List.filter
    (fun c -> Tree.is_element doc c && Tree.name doc c = name)
    (Tree.children doc n)

let text_media_units doc = elements doc text_media_unit

(* The TextContent child of a unit and its string value. *)
let text_of_unit doc unit =
  child_named doc unit text_content
  |> Option.map (fun c -> (c, Tree.string_value doc c))

let annotations_with doc unit child_name =
  children_named doc unit annotation
  |> List.filter (fun a -> child_named doc a child_name <> None)

let has_annotation doc unit child_name = annotations_with doc unit child_name <> []

let language_of_unit doc unit =
  match annotations_with doc unit language with
  | a :: _ ->
    Option.map (fun l -> Tree.string_value doc l) (child_named doc a language)
  | [] -> None

(* Promote a node to a resource if it is not one yet. *)
let ensure_resource doc n =
  if Tree.uri doc n = None then Tree.set_uri doc n (Tree.fresh_uri doc)

(* A new resource element appended under [parent]. *)
let new_resource ?attrs doc ~parent name =
  let n = Tree.new_element ?attrs doc ~parent name in
  Tree.set_uri doc n (Tree.fresh_uri doc);
  n
