(** Concrete syntax for mapping rules:

    {v [name :] pattern ( ==> | --> ) pattern v}

    e.g. the paper's M2 (Figure 3):

    {v M2: //TextMediaUnit[$x := @id]/TextContent ==>
       //TextMediaUnit[$x := @id]/Annotation[Language] v} *)

exception Error of string

val parse : string -> Rule.t
(** @raise Error on lexical, syntactic or well-formedness problems. *)

val parse_many : string -> Rule.t list
(** One rule per line; blank lines and [#] comments are ignored.
    @raise Error on the first bad line. *)
