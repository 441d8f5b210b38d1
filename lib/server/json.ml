(* Minimal JSON for the NDJSON serving protocol.  No dependency ships a
   JSON codec, and the protocol needs only the data model, so the parser
   is a small recursive descent over a string with an explicit cursor.
   Everything is total: malformed input raises [Parse_error], never
   [Invalid_argument] or an assertion.

   The cursor is also the protocol's reader: [parse] is a fold over its
   members and values, and the protocol walks a request's top-level
   members with the same steps, so it can keep a commit's ["xml"] body
   raw and read only its tail.  Strings are the bulk of a request (a
   commit's whole document travels as one), so both directions handle
   them in runs, eight bytes a step, with the scanners
   [Xml_parser] keeps beside its own: one validator and one decoder of
   string bodies serve the codec and the graft alike.  A string without
   escapes decodes to a single [String.sub], any other to an exact-size
   copy. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ----- Printing -----

   One writer: every value is printed into a {!Weblab_rdf.Sink.t}, which
   drains its stage wherever the caller points it (a connection's
   channel, a [Buffer.t]). *)

module Sink = Weblab_rdf.Sink

let hex = "0123456789abcdef"

(* The escaped form of [s.[i0 .. n-1]], without quotes: each run of
   plain bytes is copied whole, then one escape. *)
let escape_sub w s i0 n =
  let rec go i =
    let j = Weblab_xml.Xml_parser.json_plain_run s i n in
    Sink.add_substring w s i (j - i);
    if j < n then begin
      (match String.unsafe_get s j with
       | '"' -> Sink.add_string w "\\\""
       | '\\' -> Sink.add_string w "\\\\"
       | '\n' -> Sink.add_string w "\\n"
       | '\r' -> Sink.add_string w "\\r"
       | '\t' -> Sink.add_string w "\\t"
       | c ->
         Sink.add_string w "\\u00";
         Sink.add_char w hex.[Char.code c lsr 4];
         Sink.add_char w hex.[Char.code c land 15]);
      go (j + 1)
    end
  in
  go i0

let write_escaped w b off len =
  escape_sub w (Bytes.unsafe_to_string b) off (off + len)

let write_string w s =
  Sink.add_char w '"';
  escape_sub w s 0 (String.length s);
  Sink.add_char w '"'

let rec write w = function
  | Null -> Sink.add_string w "null"
  | Bool b -> Sink.add_string w (if b then "true" else "false")
  | Int i -> Sink.add_string w (string_of_int i)
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Sink.add_string w (Printf.sprintf "%.1f" f)
    else if Float.is_nan f || Float.abs f = Float.infinity then
      (* JSON has no NaN/Inf; null is the least-surprising encoding. *)
      Sink.add_string w "null"
    else Sink.add_string w (Printf.sprintf "%.17g" f)
  | Str s -> write_string w s
  | List xs ->
    Sink.add_char w '[';
    List.iteri
      (fun i x ->
        if i > 0 then Sink.add_char w ',';
        write w x)
      xs;
    Sink.add_char w ']'
  | Obj kvs ->
    Sink.add_char w '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Sink.add_char w ',';
        write_string w k;
        Sink.add_char w ':';
        write w v)
      kvs;
    Sink.add_char w '}'

let to_string v =
  let buf = Buffer.create 256 in
  let w = Sink.create ~size:4096 (Buffer.add_subbytes buf) in
  write w v;
  Sink.flush w;
  Buffer.contents buf

(* ----- Parsing ----- *)

type reader = {
  s : string;
  mutable pos : int;
  mutable first : bool;  (* no member of the reader's object read yet *)
  mutable skipped : int;  (* bytes jumped over by [string_end] *)
}

let reader s = { s; pos = 0; first = false; skipped = 0 }

let fail_at pos msg =
  raise (Parse_error (Printf.sprintf "at offset %d: %s" pos msg))

let fail cur msg = fail_at cur.pos msg

let peek cur = if cur.pos < String.length cur.s then Some cur.s.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let n = String.length cur.s in
  while
    cur.pos < n
    && (match cur.s.[cur.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    advance cur
  done

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> advance cur
  | Some c' -> fail cur (Printf.sprintf "expected %C, found %C" c c')
  | None -> fail cur (Printf.sprintf "expected %C, found end of input" c)

let expect_lit cur lit v =
  let n = String.length lit in
  if cur.pos + n <= String.length cur.s && String.sub cur.s cur.pos n = lit then begin
    cur.pos <- cur.pos + n;
    v
  end
  else fail cur (Printf.sprintf "expected %s" lit)

module X = Weblab_xml.Xml_parser

(* Validate the string body from [i] to its closing quote: the quote's
   offset and the body's decoded length. *)
let scan cur i =
  try X.json_scan cur.s i (String.length cur.s)
  with X.Json_error (at, msg) -> fail_at at msg

let parse_string cur =
  expect cur '"';
  let s = cur.s and i = cur.pos in
  let q, len = scan cur i in
  cur.pos <- q + 1;
  if len = q - i then String.sub s i len
  else begin
    let b = Bytes.create len and at = ref 0 in
    X.json_unescape s i q (fun src off n _ ->
        if n = 1 then Bytes.unsafe_set b !at (Bytes.unsafe_get src off)
        else Bytes.blit src off b !at n;
        at := !at + n);
    Bytes.unsafe_to_string b
  end

let parse_number cur =
  let start = cur.pos in
  let n = String.length cur.s in
  if cur.pos < n && cur.s.[cur.pos] = '-' then advance cur;
  let digits () =
    let d0 = cur.pos in
    while cur.pos < n && (match cur.s.[cur.pos] with '0' .. '9' -> true | _ -> false) do
      advance cur
    done;
    if cur.pos = d0 then fail cur "expected digit"
  in
  (* RFC 8259 §6: an integer part is 0 or starts with a nonzero digit. *)
  if cur.pos < n && cur.s.[cur.pos] = '0' then begin
    advance cur;
    if
      cur.pos < n
      && match cur.s.[cur.pos] with '0' .. '9' -> true | _ -> false
    then fail cur "leading zero in number"
  end
  else digits ();
  let is_float = ref false in
  if cur.pos < n && cur.s.[cur.pos] = '.' then begin
    is_float := true;
    advance cur;
    digits ()
  end;
  if cur.pos < n && (cur.s.[cur.pos] = 'e' || cur.s.[cur.pos] = 'E') then begin
    is_float := true;
    advance cur;
    if cur.pos < n && (cur.s.[cur.pos] = '+' || cur.s.[cur.pos] = '-') then
      advance cur;
    digits ()
  end;
  let text = String.sub cur.s start (cur.pos - start) in
  if !is_float then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text)

(* The parser recurses once per array or object, and a request line can
   hold millions of brackets. *)
let max_depth = 512

let enter cur depth =
  if depth >= max_depth then
    fail cur (Printf.sprintf "nesting deeper than %d" max_depth);
  advance cur

(* The next member's key of an object whose '{' is read, its ':'
   consumed; [None] once its '}' is. *)
let member_key cur ~first =
  skip_ws cur;
  let key () =
    skip_ws cur;
    let k = parse_string cur in
    skip_ws cur;
    expect cur ':';
    Some k
  in
  if first then
    if peek cur = Some '}' then begin
      advance cur;
      None
    end
    else key ()
  else
    match peek cur with
    | Some ',' ->
      advance cur;
      key ()
    | Some '}' ->
      advance cur;
      None
    | _ -> fail cur "expected ',' or '}'"

let rec parse_value cur depth =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> expect_lit cur "null" Null
  | Some 't' -> expect_lit cur "true" (Bool true)
  | Some 'f' -> expect_lit cur "false" (Bool false)
  | Some '"' -> Str (parse_string cur)
  | Some '[' ->
    enter cur depth;
    skip_ws cur;
    if peek cur = Some ']' then begin
      advance cur;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value cur (depth + 1) in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          items (v :: acc)
        | Some ']' ->
          advance cur;
          List.rev (v :: acc)
        | _ -> fail cur "expected ',' or ']'"
      in
      List (items [])
    end
  | Some '{' ->
    enter cur depth;
    let rec members first acc =
      match member_key cur ~first with
      | None -> Obj (List.rev acc)
      | Some k -> members false ((k, parse_value cur (depth + 1)) :: acc)
    in
    members true []
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected character %C" c)

let c_scanned = Weblab_obs.Telemetry.counter "json.scanned"

let finish cur =
  skip_ws cur;
  (match peek cur with
  | None -> ()
  | Some c -> fail cur (Printf.sprintf "trailing input starting with %C" c));
  Weblab_obs.Telemetry.add c_scanned (String.length cur.s - cur.skipped)

let parse s =
  let cur = reader s in
  let v = parse_value cur 0 in
  finish cur;
  v

(* ----- Reading a top-level object member by member ----- *)

let object_start cur =
  skip_ws cur;
  if peek cur = Some '{' then begin
    advance cur;
    cur.first <- true;
    true
  end
  else false

let next_member cur =
  let first = cur.first in
  cur.first <- false;
  member_key cur ~first

let member_value cur = parse_value cur 1

let string_start cur =
  skip_ws cur;
  if peek cur = Some '"' then begin
    advance cur;
    Some cur.pos
  end
  else None

let string_end cur i =
  let q, _ = scan cur i in
  cur.skipped <- cur.skipped + (i - cur.pos);
  cur.pos <- q + 1;
  q

let parse_opt s =
  match parse s with
  | v -> Ok v
  | exception Parse_error msg -> Error msg
  | exception Failure msg -> Error msg  (* float_of_string overflow etc. *)

(* ----- Accessors ----- *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f && Float.abs f <= 2. ** 52. ->
    Some (int_of_float f)
  | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_list = function List xs -> Some xs | _ -> None

let bind o f = match o with Some v -> f v | None -> None

let str_member k v = bind (member k v) to_str
let int_member k v = bind (member k v) to_int
let float_member k v = bind (member k v) to_float_opt
let bool_member k v = bind (member k v) to_bool
