(** Recursive-descent parser for XPath patterns (Definition 4).

    The concrete syntax is the paper's:
    - steps separated by [/] (child) or [//] (descendant), starting with
      one of them (patterns are absolute);
    - name tests or [*];
    - predicates in brackets: positional ([\[1\]]), attribute existence
      ([\[@id\]]), comparisons ([\[@t < 5\]], [\[A/L = 'fr'\]]), boolean
      combinations with [and]/[or]/[not(...)], variable bindings
      ([\[$x := @id\]] and [\[$p := position()\]]) and Skolem terms
      ([\[f($x) = @id\]]). *)

exception Error of { pos : int; message : string }

val pattern : string -> Ast.pattern
(** Parse a complete pattern.
    @raise Error with a byte offset on malformed input. *)

val axis_of_name : string -> Ast.axis option
(** Recognize an axis name ("child", "parent", "following-sibling", …). *)

(** {1 Incremental interface}

    Used by the rule parser, which reads [pattern ==> pattern] from one
    token stream. *)

type state = { mutable toks : (Lexer.token * int) list }

val peek : state -> Lexer.token

val advance : state -> unit

val parse_pattern_tokens : state -> Ast.pattern
(** Parse one pattern starting at the current token; stops before any
    token that cannot continue a pattern (e.g. the rule arrow). *)
