(* Concrete syntax for mapping rules:

   {v [name :] pattern ( ==> | --> ) pattern v}

   e.g. the paper's M2 (Figure 3):

   {v M2: //TextMediaUnit[$x := @id]/TextContent ==>
          //TextMediaUnit[$x := @id]/Annotation[Language] v} *)

open Weblab_xpath

exception Error of string

let parse (input : string) : Rule.t =
  (* Optional "name:" prefix — a leading NAME followed by ':' before the
     first '/' of the source pattern. *)
  let name, body =
    match String.index_opt input ':' with
    | Some i
      when (not (String.contains_from input 0 '/')
            || i < String.index input '/')
           && i + 1 < String.length input
           && input.[i + 1] <> '=' ->
      let raw = String.trim (String.sub input 0 i) in
      if raw <> "" && String.for_all (fun c -> c <> '[' && c <> ']') raw then
        (raw, String.sub input (i + 1) (String.length input - i - 1))
      else ("", input)
    | _ -> ("", input)
  in
  (* Parse the source pattern, expect ARROW, parse the target pattern. *)
  let toks =
      try Lexer.tokenize body
      with Lexer.Error { pos; message } ->
        raise (Error (Printf.sprintf "lexical error at %d: %s" pos message))
    in
    let st = { Parser.toks } in
    let source =
      try Parser.parse_pattern_tokens st
      with Parser.Error { pos; message } ->
        raise (Error (Printf.sprintf "in source pattern at %d: %s" pos message))
    in
    (match Parser.peek st with
     | Lexer.ARROW -> Parser.advance st
     | t ->
       raise
         (Error
            (Printf.sprintf "expected '==>' between patterns, found %s"
               (Lexer.token_to_string t))));
    let target =
      try Parser.parse_pattern_tokens st
      with Parser.Error { pos; message } ->
        raise (Error (Printf.sprintf "in target pattern at %d: %s" pos message))
    in
    (match Parser.peek st with
     | Lexer.EOF -> ()
     | t ->
       raise
         (Error
            (Printf.sprintf "trailing input after rule: %s"
               (Lexer.token_to_string t))));
    (try Rule.make ~name ~source ~target ()
     with Rule.Ill_formed msg -> raise (Error msg))

(* Parse a rule file / string block: one rule per line, '#' comments and
   blank lines ignored. *)
let parse_many input =
  String.split_on_char '\n' input
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || (String.length line > 0 && line.[0] = '#') then None
         else Some (parse line))
