(* Minimal JSON for the NDJSON serving protocol.  No dependency ships a
   JSON codec, and the protocol needs only the data model, so the parser
   is a small recursive descent over a string with an explicit cursor.
   Everything is total: malformed input raises [Parse_error], never
   [Invalid_argument] or an assertion.

   Strings are the bulk of a request (a commit's whole document travels
   as one), so both directions handle them in runs: a run of plain bytes
   (anything but '"', '\\' or a byte below 0x20) is found eight bytes a
   step and copied whole.  A string without escapes decodes to a single
   [String.sub]; only escapes go through the byte-level decoder. *)

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

(* Bytes that print as themselves: everything but '"', '\\' and controls. *)
let is_plain c = c <> '"' && c <> '\\' && Char.code c >= 0x20

(* A high bit in each byte of [x] that is zero, exact up to the first
   such byte (borrows only disturb the bytes above it).  [Xml_parser]
   has the same two lines: shared across modules, the call is not
   inlined and boxes the word, which made [plain_run] no faster than the
   byte loop. *)
let zero_bytes x =
  Int64.(logand (logand (sub x 0x0101010101010101L) (lognot x)) 0x8080808080808080L)

(* End of the run of plain bytes of [s] starting at [i] and ending at
   [n] at the latest: eight bytes a step while no byte of the word is
   '"', '\\' or below 0x20, then byte by byte up to the run's end. *)
let plain_run s i n =
  let j = ref i in
  let words = ref true in
  while !words && !j + 8 <= n do
    let w = String.get_int64_le s !j in
    let stop =
      Int64.(
        logor
          (logor
             (zero_bytes (logxor w 0x2222222222222222L))
             (zero_bytes (logxor w 0x5c5c5c5c5c5c5c5cL)))
          (* the same borrow test against 0x20: a byte below it *)
          (logand
             (logand (sub w 0x2020202020202020L) (lognot w))
             0x8080808080808080L))
    in
    if Int64.equal stop 0L then j := !j + 8 else words := false
  done;
  while !j < n && is_plain (String.unsafe_get s !j) do
    incr j
  done;
  !j

let hex = "0123456789abcdef"

(* The escaped form of [s.[i0 .. n-1]], without quotes: each run of
   plain bytes is copied whole, then one escape. *)
let escape_sub w s i0 n =
  let rec go i =
    let j = plain_run s i n in
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

type cursor = { s : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "at offset %d: %s" cur.pos msg))

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

let hex_digit cur c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail cur "invalid hex digit in \\u escape"

(* Decode a \uXXXX code point (with surrogate pairs) to UTF-8 bytes. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_u16 cur =
  if cur.pos + 4 > String.length cur.s then fail cur "truncated \\u escape";
  let v =
    (hex_digit cur cur.s.[cur.pos] lsl 12)
    lor (hex_digit cur cur.s.[cur.pos + 1] lsl 8)
    lor (hex_digit cur cur.s.[cur.pos + 2] lsl 4)
    lor hex_digit cur cur.s.[cur.pos + 3]
  in
  cur.pos <- cur.pos + 4;
  v

(* One escape sequence, the '\\' already consumed. *)
let parse_escape cur buf =
  match peek cur with
  | None -> fail cur "unterminated escape"
  | Some c ->
    advance cur;
    (match c with
    | '"' -> Buffer.add_char buf '"'
    | '\\' -> Buffer.add_char buf '\\'
    | '/' -> Buffer.add_char buf '/'
    | 'b' -> Buffer.add_char buf '\b'
    | 'f' -> Buffer.add_char buf '\012'
    | 'n' -> Buffer.add_char buf '\n'
    | 'r' -> Buffer.add_char buf '\r'
    | 't' -> Buffer.add_char buf '\t'
    | 'u' ->
      let hi = parse_u16 cur in
      if hi >= 0xD800 && hi <= 0xDBFF then
        if
          cur.pos + 1 < String.length cur.s
          && cur.s.[cur.pos] = '\\'
          && cur.s.[cur.pos + 1] = 'u'
        then begin
          cur.pos <- cur.pos + 2;
          let lo = parse_u16 cur in
          if lo >= 0xDC00 && lo <= 0xDFFF then
            add_utf8 buf (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
          else fail cur "invalid low surrogate"
        end
        else fail cur "unpaired high surrogate"
      else add_utf8 buf hi
    | c -> fail cur (Printf.sprintf "invalid escape \\%c" c))

(* Plain runs are copied whole; a string without escapes is one
   [String.sub].  The buffer exists only once an escape shows up. *)
let parse_string cur =
  expect cur '"';
  let s = cur.s in
  let start = cur.pos in
  let j = plain_run s start (String.length s) in
  if j < String.length s && String.unsafe_get s j = '"' then begin
    cur.pos <- j + 1;
    String.sub s start (j - start)
  end
  else begin
    let buf = Buffer.create (j - start + 64) in
    (* [i, j) is a run of plain bytes, and [j] is where it stopped. *)
    let rec go i j =
      Buffer.add_substring buf s i (j - i);
      cur.pos <- j;
      match peek cur with
      | None -> fail cur "unterminated string"
      | Some '"' -> advance cur
      | Some '\\' ->
        advance cur;
        parse_escape cur buf;
        go cur.pos (plain_run s cur.pos (String.length s))
      | Some _ -> fail cur "control character in string"
    in
    go start j;
    Buffer.contents buf
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
    skip_ws cur;
    if peek cur = Some '}' then begin
      advance cur;
      Obj []
    end
    else begin
      let member () =
        skip_ws cur;
        let k = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur (depth + 1) in
        (k, v)
      in
      let rec members acc =
        let kv = member () in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          members (kv :: acc)
        | Some '}' ->
          advance cur;
          List.rev (kv :: acc)
        | _ -> fail cur "expected ',' or '}'"
      in
      Obj (members [])
    end
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected character %C" c)

let parse s =
  let cur = { s; pos = 0 } in
  let v = parse_value cur 0 in
  skip_ws cur;
  (match peek cur with
  | None -> ()
  | Some c -> fail cur (Printf.sprintf "trailing input starting with %C" c));
  v

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
