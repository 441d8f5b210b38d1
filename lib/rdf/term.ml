(* RDF terms.  Literals carry an optional datatype IRI (plain literals are
   xsd:string by RDF 1.1, represented here as [None] for compactness). *)

type t =
  | Iri of string
  | Lit of string * string option  (* lexical form, datatype IRI *)
  | Bnode of string

let equal a b =
  match a, b with
  | Iri x, Iri y -> String.equal x y
  | Bnode x, Bnode y -> String.equal x y
  | Lit (x, dx), Lit (y, dy) -> String.equal x y && Option.equal String.equal dx dy
  | (Iri _ | Lit _ | Bnode _), _ -> false

let compare a b =
  let tag = function Iri _ -> 0 | Lit _ -> 1 | Bnode _ -> 2 in
  match a, b with
  | Iri x, Iri y -> String.compare x y
  | Bnode x, Bnode y -> String.compare x y
  | Lit (x, dx), Lit (y, dy) ->
    let c = String.compare x y in
    if c <> 0 then c else Option.compare String.compare dx dy
  | _ -> Int.compare (tag a) (tag b)

(* Allocation-free: hash the strings themselves and fold the kind in
   arithmetically, rather than hashing a freshly built tuple. *)
let hash = function
  | Iri s -> Hashtbl.hash s
  | Lit (s, None) -> (Hashtbl.hash s * 31) + 1
  | Lit (s, Some d) -> (((Hashtbl.hash s * 31) + Hashtbl.hash d) * 31) + 2
  | Bnode s -> (Hashtbl.hash s * 31) + 3

let xsd_integer = "http://www.w3.org/2001/XMLSchema#integer"
let xsd_date_time = "http://www.w3.org/2001/XMLSchema#dateTime"

let iri s = Iri s
let lit s = Lit (s, None)
let int_lit i = Lit (string_of_int i, Some xsd_integer)
let bnode s = Bnode s

(* Whether a byte needs a backslash in N-Triples/Turtle literal text. *)
let needs_escape = function '"' | '\\' | '\n' | '\r' | '\t' -> true | _ -> false

(* A lexical form with nothing to escape is returned as it is. *)
let escape_lit s =
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

(* N-Triples concrete syntax of a term: one allocation of the exact
   length per term, no format interpretation. *)
let to_ntriples = function
  | Iri s -> String.concat "" [ "<"; s; ">" ]
  | Bnode s -> "_:" ^ s
  | Lit (s, None) -> String.concat "" [ "\""; escape_lit s; "\"" ]
  | Lit (s, Some dt) -> String.concat "" [ "\""; escape_lit s; "\"^^<"; dt; ">" ]

let pp ppf t = Fmt.string ppf (to_ntriples t)
