(* The JSON string decoder {!Weblab_server.Json} used before it scanned
   plain bytes in runs: one [peek] and one [Buffer.add_char] per byte.
   Kept as the oracle for values, error messages and offsets.  Like the
   decoder, it rejects ill-formed UTF-8 (RFC 3629's table of well-formed
   byte sequences, checked byte by byte, the error at the lead byte) and
   unpaired surrogate escapes of either half. *)

type cursor = { s : string; mutable pos : int }

exception Parse_error of string

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

let hex_digit cur c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail cur "invalid hex digit in \\u escape"

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

(* The length of the well-formed sequence at the cursor, by RFC 3629's
   table: the lead byte fixes the range of the second byte. *)
let utf8_sequence cur =
  let byte i =
    if cur.pos + i < String.length cur.s then Char.code cur.s.[cur.pos + i]
    else -1
  in
  let within i lo hi = byte i >= lo && byte i <= hi in
  let tail k = List.for_all (fun i -> within i 0x80 0xBF) (List.init k (fun i -> i + 2)) in
  let n, lo, hi =
    match byte 0 with
    | b when b >= 0xC2 && b <= 0xDF -> (2, 0x80, 0xBF)
    | 0xE0 -> (3, 0xA0, 0xBF)
    | b when (b >= 0xE1 && b <= 0xEC) || b = 0xEE || b = 0xEF -> (3, 0x80, 0xBF)
    | 0xED -> (3, 0x80, 0x9F)
    | 0xF0 -> (4, 0x90, 0xBF)
    | b when b >= 0xF1 && b <= 0xF3 -> (4, 0x80, 0xBF)
    | 0xF4 -> (4, 0x80, 0x8F)
    | _ -> (0, 0, 0)
  in
  if n = 0 || not (within 1 lo hi && tail (n - 2)) then
    fail cur "ill-formed UTF-8";
  n

let parse_string cur =
  (* The caller has seen the opening quote. *)
  advance cur;
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' ->
      advance cur;
      (match peek cur with
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
                add_utf8 buf
                  (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
              else fail cur "invalid low surrogate"
            end
            else fail cur "unpaired high surrogate"
          else if hi >= 0xDC00 && hi <= 0xDFFF then
            fail cur "unpaired low surrogate"
          else add_utf8 buf hi
        | c -> fail cur (Printf.sprintf "invalid escape \\%c" c)));
      go ()
    | Some c when Char.code c < 0x20 -> fail cur "control character in string"
    | Some c when Char.code c >= 0x80 ->
      let n = utf8_sequence cur in
      Buffer.add_string buf (String.sub cur.s cur.pos n);
      cur.pos <- cur.pos + n;
      go ()
    | Some c ->
      advance cur;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_string_document s =
  let cur = { s; pos = 0 } in
  match
    skip_ws cur;
    if peek cur <> Some '"' then fail cur "oracle: not a string literal";
    let v = parse_string cur in
    skip_ws cur;
    (match peek cur with
    | None -> ()
    | Some c -> fail cur (Printf.sprintf "trailing input starting with %C" c));
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg
