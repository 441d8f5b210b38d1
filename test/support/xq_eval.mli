(** Evaluation of the FLWOR fragment over a WebLab document: [for]
    clauses iterate over path node-sequences, [let] clauses bind computed
    values (a missing attribute kills the embedding, per Definition 4
    condition 2), the [where] conjunction filters, and each surviving
    binding yields one row of the result table. *)

open Weblab_xml
open Weblab_relalg
open Weblab_xquery

exception Unbound_variable of string
(** A for/let variable was referenced before being bound — a compiler
    bug, not a data condition. *)

val run : Tree.t -> Xq_ast.flwor -> Table.t
(** Result columns are the query's return columns; rows are distinct. *)
