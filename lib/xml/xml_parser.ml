(* A streaming XML parser covering the fragment WebLab documents use:
   one root element, attributes with single- or double-quoted values,
   character data with the five predefined entities plus numeric character
   references, comments, CDATA sections, and an optional XML declaration.
   DTDs and processing instructions are skipped; a DOCTYPE's internal
   subset is skipped to its ']', past quoted literals and comments that
   may hold a '>'.  Namespace prefixes are kept as part of the
   element/attribute name.

   The parser is a character-level state machine fed incremental byte
   chunks ([feed]); SAX-style events are emitted as soon as a token
   completes, so a network daemon parses request bodies as they arrive —
   no whole-document string, no intermediate DOM.  Chunk boundaries may
   fall anywhere (mid-tag, mid-entity, mid-CDATA): every partial token is
   explicit parser state, so the event stream is invariant under
   re-chunking.

   Tokens are scanned in runs wherever the chunk holds them: character
   data, CDATA and attribute values up to their next delimiter (eight
   bytes a step while a word holds no delimiter and no newline), and
   element, attribute and end-tag names up to the first non-name
   character.  Each run is appended to its buffer whole, and line and
   column are counted inside the scanning loop.  Only markup punctuation
   and the first character of a start-tag or attribute name go through
   the per-character machine; a run cut by a chunk boundary resumes as a
   run in the next chunk.  [parse] remains the one-chunk convenience
   wrapper building a {!Tree.t}. *)

exception Error of { line : int; col : int; message : string }

(* Total: callers hand it whatever escaped from [parse] — typically an
   {!Error}, but a daemon reporting a malformed client document must never
   crash inside error *reporting* itself, so every other exception (and
   every future [Error] payload shape) also renders descriptively. *)
let error_to_string = function
  | Error { line; col; message } ->
    Printf.sprintf "XML parse error at %d:%d: %s" line col message
  | Invalid_argument msg -> "XML parse error: invalid argument: " ^ msg
  | Failure msg -> "XML parse error: " ^ msg
  | e -> "XML parse error: " ^ Printexc.to_string e

type event =
  | Start_element of string * (string * string) list
  | Text of string
  | End_element of string

(* One constructor per partial token: a chunk may end anywhere, and the
   machine resumes from exactly that character. *)
type mode =
  | M_misc  (* prolog/epilog: whitespace and misc markup between tags *)
  | M_content  (* inside an element: character data accumulates *)
  | M_lt  (* '<' consumed *)
  | M_bang  (* "<!" *)
  | M_comment_open  (* "<!-" *)
  | M_comment
  | M_comment_dash  (* '-' seen inside a comment *)
  | M_comment_dash2  (* "--" seen inside a comment *)
  | M_pi  (* inside "<?...": skipped *)
  | M_pi_q  (* '?' seen inside a PI *)
  | M_doctype of int  (* prefix of "DOCTYPE" matched so far *)
  | M_doctype_body  (* skipping to '>', outside the internal subset *)
  | M_doctype_subset  (* inside the internal subset's '[' ... ']' *)
  | M_doctype_quoted of char * bool
      (* inside a quoted literal: its quote, and whether the literal
         sits in the internal subset *)
  | M_doctype_markup of int
      (* in the internal subset: "<" (0), "<!" (1), "<!-" (2) read, a
         comment (3), '-' (4) or "--" (5) seen inside it *)
  | M_cdata_open of int  (* after "<![": prefix of "CDATA[" matched *)
  | M_cdata
  | M_cdata_rb  (* ']' seen inside CDATA *)
  | M_cdata_rb2  (* "]]" seen inside CDATA *)
  | M_stag_name  (* start-tag name characters *)
  | M_stag_space  (* inside a start tag, between attributes *)
  | M_attr_name
  | M_attr_eq  (* expecting '=' *)
  | M_attr_value_start  (* expecting the opening quote *)
  | M_attr_value  (* inside a quoted value *)
  | M_entity  (* after '&', accumulating up to ';' *)
  | M_stag_slash  (* '/' seen inside a start tag: expecting '>' *)
  | M_etag_name  (* after "</" *)
  | M_etag_end  (* after the closing-tag name: expecting '>' *)

type position = { offset : int; line : int; col : int }

type state = {
  on_event : event -> unit;
  preserve_whitespace : bool;
  mutable offset : int;  (* bytes consumed since the start of the input *)
  mutable line : int;
  mutable col : int;  (* position of the next unconsumed character *)
  mutable mode : mode;
  name_buf : Buffer.t;  (* element / attribute name being read *)
  text_buf : Buffer.t;  (* pending character data: one future Text event *)
  val_buf : Buffer.t;  (* attribute value being read *)
  ent_buf : Buffer.t;  (* entity name being read *)
  mutable attrs_rev : (string * string) list;
  mutable tag_name : string;
  mutable attr_name : string;
  mutable quote : char;
  mutable stack : string list;  (* open element names, innermost first *)
  mutable depth : int;
  mutable ent_in_attr : bool;  (* the open entity belongs to a value *)
  mutable seen_root : bool;
  mutable lt_line : int;  (* position of the last '<': error anchoring *)
  mutable lt_col : int;
  mutable finished : bool;
}

let create ?(preserve_whitespace = false) ~on_event () =
  { on_event; preserve_whitespace; offset = 0; line = 1; col = 1; mode = M_misc;
    name_buf = Buffer.create 16; text_buf = Buffer.create 64;
    val_buf = Buffer.create 16; ent_buf = Buffer.create 8; attrs_rev = [];
    tag_name = ""; attr_name = ""; quote = '"'; stack = []; depth = 0;
    ent_in_attr = false; seen_root = false; lt_line = 1; lt_col = 1;
    finished = false }

let position st : position =
  { offset = st.offset; line = st.line; col = st.col }

(* Just past a tag's '>' inside an element, the machine holds nothing
   but its position and open elements: content mode, no pending
   character data, the root seen.  Every other field is written before
   it is next read. *)
let resume ~on_event ~(at : position) ~open_elements () =
  if open_elements = [] then
    invalid_arg "Xml_parser.resume: no open element";
  let st = create ~on_event () in
  st.offset <- at.offset;
  st.line <- at.line;
  st.col <- at.col;
  st.mode <- M_content;
  st.stack <- open_elements;
  st.depth <- List.length open_elements;
  st.seen_root <- true;
  st

let fail st message = raise (Error { line = st.line; col = st.col; message })

let fail_at line col message = raise (Error { line; col; message })

(* Consume [c]: the position now points past it. *)
let adv st c =
  st.offset <- st.offset + 1;
  if c = '\n' then begin
    st.line <- st.line + 1;
    st.col <- 1
  end
  else st.col <- st.col + 1

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let is_blank s = String.for_all is_space s

let in_epilog st = st.depth = 0 && st.seen_root

(* "<!" followed by something that is neither a comment nor (where legal)
   CDATA/DOCTYPE: report the same error, at the same position, as the
   whole-string parser did. *)
let bang_fail st =
  if in_epilog st then
    fail_at st.lt_line st.lt_col "trailing content after the root element"
  else fail_at st.lt_line (st.lt_col + 1) "expected a name"

let end_markup_mode st = if st.depth > 0 then M_content else M_misc

(* Emit the pending character data as one Text event — called only when a
   child element starts or the enclosing tag closes, so text interleaved
   with comments, PIs, CDATA and entities merges into a single node,
   exactly as the recursive parser's per-content buffer did. *)
let flush_text st =
  if Buffer.length st.text_buf > 0 then begin
    let s = Buffer.contents st.text_buf in
    Buffer.clear st.text_buf;
    if st.preserve_whitespace || not (is_blank s) then st.on_event (Text s)
  end

let emit_start st ~self_closing =
  let attrs = List.rev st.attrs_rev in
  st.attrs_rev <- [];
  st.seen_root <- true;
  st.on_event (Start_element (st.tag_name, attrs));
  if self_closing then begin
    st.on_event (End_element st.tag_name);
    st.mode <- end_markup_mode st
  end
  else begin
    st.stack <- st.tag_name :: st.stack;
    st.depth <- st.depth + 1;
    st.mode <- M_content
  end

(* XML 1.0 §2.2: the characters a numeric reference may denote. *)
let is_valid_xml_char c =
  c = 0x9 || c = 0xA || c = 0xD
  || (c >= 0x20 && c <= 0xD7FF)
  || (c >= 0xE000 && c <= 0xFFFD)
  || (c >= 0x10000 && c <= 0x10FFFF)

(* The code point of a numeric reference's digits, [ent] from [i] on in
   [base] 10 or 16: XML 1.0 §4.1 allows [0-9]+ and [0-9a-fA-F]+ only (no
   sign, underscore or radix prefix).  Values past the Unicode range
   saturate, so a long run of digits is an invalid character, not an
   overflow. *)
let char_code ent i base =
  let n = String.length ent in
  let rec go k acc =
    if k = n then Some acc
    else
      let d =
        match ent.[k] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | ('a' .. 'f' | 'A' .. 'F') as c when base = 16 ->
          (Char.code (Char.lowercase_ascii c) - Char.code 'a') + 10
        | _ -> base
      in
      if d = base then None else go (k + 1) (min 0x110000 ((acc * base) + d))
  in
  go i 0

(* Decode one entity reference ('&' and ';' both consumed). *)
let decode_entity st ent =
  match ent with
  | "amp" -> "&"
  | "lt" -> "<"
  | "gt" -> ">"
  | "quot" -> "\""
  | "apos" -> "'"
  | ent ->
    let code =
      if String.length ent > 2 && ent.[0] = '#' && ent.[1] = 'x' then
        char_code ent 2 16
      else if String.length ent > 1 && ent.[0] = '#' then char_code ent 1 10
      else None
    in
    (match code with
     | Some c when not (is_valid_xml_char c) ->
       fail st
         (Printf.sprintf
            "invalid character reference &%s;: not an XML character" ent)
     | Some c when c < 128 -> String.make 1 (Char.chr c)
     | Some c ->
       (* Encode as UTF-8 (c <= 0x10FFFF after validation). *)
       let b = Buffer.create 4 in
       if c < 0x800 then begin
         Buffer.add_char b (Char.chr (0xC0 lor (c lsr 6)));
         Buffer.add_char b (Char.chr (0x80 lor (c land 0x3F)))
       end
       else if c < 0x10000 then begin
         Buffer.add_char b (Char.chr (0xE0 lor (c lsr 12)));
         Buffer.add_char b (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
         Buffer.add_char b (Char.chr (0x80 lor (c land 0x3F)))
       end
       else begin
         Buffer.add_char b (Char.chr (0xF0 lor (c lsr 18)));
         Buffer.add_char b (Char.chr (0x80 lor ((c lsr 12) land 0x3F)));
         Buffer.add_char b (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
         Buffer.add_char b (Char.chr (0x80 lor (c land 0x3F)))
       end;
       Buffer.contents b
     | None -> fail st (Printf.sprintf "unknown entity &%s;" ent))

(* Process one character.  Invariant: on entry [st.line]/[st.col] is the
   position OF [c]; a branch either consumes it ([adv], position moves
   past), fails without consuming (error at [c]), or re-dispatches it
   under a new mode. *)
let rec handle st c =
  match st.mode with
  | M_misc ->
    if is_space c then adv st c
    else if c = '<' then begin
      st.lt_line <- st.line;
      st.lt_col <- st.col;
      adv st c;
      st.mode <- M_lt
    end
    else if st.seen_root then fail st "trailing content after the root element"
    else fail st "expected a root element"
  | M_content ->
    if c = '<' then begin
      st.lt_line <- st.line;
      st.lt_col <- st.col;
      adv st c;
      st.mode <- M_lt
    end
    else if c = '&' then begin
      adv st c;
      st.ent_in_attr <- false;
      Buffer.clear st.ent_buf;
      st.mode <- M_entity
    end
    else begin
      adv st c;
      Buffer.add_char st.text_buf c
    end
  | M_lt ->
    if in_epilog st then begin
      if c = '!' then begin
        adv st c;
        st.mode <- M_bang
      end
      else if c = '?' then begin
        adv st c;
        st.mode <- M_pi
      end
      else
        fail_at st.lt_line st.lt_col "trailing content after the root element"
    end
    else if c = '!' then begin
      adv st c;
      st.mode <- M_bang
    end
    else if c = '?' then begin
      adv st c;
      st.mode <- M_pi
    end
    else if c = '/' && st.depth > 0 then begin
      adv st c;
      flush_text st;
      Buffer.clear st.name_buf;
      st.mode <- M_etag_name
    end
    else if is_name_start c then begin
      flush_text st;
      Buffer.clear st.name_buf;
      st.mode <- M_stag_name;
      handle st c
    end
    else fail st "expected a name"
  | M_stag_name ->
    if is_name_char c then begin
      adv st c;
      Buffer.add_char st.name_buf c
    end
    else begin
      st.tag_name <- Buffer.contents st.name_buf;
      st.attrs_rev <- [];
      st.mode <- M_stag_space;
      handle st c
    end
  | M_stag_space ->
    if is_space c then adv st c
    else if is_name_start c then begin
      Buffer.clear st.name_buf;
      st.mode <- M_attr_name;
      handle st c
    end
    else if c = '/' then begin
      adv st c;
      st.mode <- M_stag_slash
    end
    else if c = '>' then begin
      adv st c;
      emit_start st ~self_closing:false
    end
    else fail st "expected '>' or '/>'"
  | M_attr_name ->
    if is_name_char c then begin
      adv st c;
      Buffer.add_char st.name_buf c
    end
    else begin
      let name = Buffer.contents st.name_buf in
      (* XML 1.0 §3.1, Unique Att Spec.  A name holds no newline, so it
         starts on this line, wherever the chunks were cut. *)
      if List.mem_assoc name st.attrs_rev then
        fail_at st.line (st.col - String.length name)
          (Printf.sprintf "duplicate attribute %s" name);
      st.attr_name <- name;
      st.mode <- M_attr_eq;
      handle st c
    end
  | M_attr_eq ->
    if is_space c then adv st c
    else if c = '=' then begin
      adv st c;
      st.mode <- M_attr_value_start
    end
    else fail st "expected '=' after attribute name"
  | M_attr_value_start ->
    if is_space c then adv st c
    else if c = '"' || c = '\'' then begin
      adv st c;
      st.quote <- c;
      Buffer.clear st.val_buf;
      st.mode <- M_attr_value
    end
    else begin
      (* The recursive parser consumed the offending character before
         noticing; keep its error position. *)
      adv st c;
      fail st "expected a quoted attribute value"
    end
  | M_attr_value ->
    if c = st.quote then begin
      adv st c;
      st.attrs_rev <-
        (st.attr_name, Buffer.contents st.val_buf) :: st.attrs_rev;
      st.mode <- M_stag_space
    end
    else if c = '&' then begin
      adv st c;
      st.ent_in_attr <- true;
      Buffer.clear st.ent_buf;
      st.mode <- M_entity
    end
    else begin
      adv st c;
      Buffer.add_char st.val_buf c
    end
  | M_entity ->
    if c = ';' then begin
      adv st c;
      let s = decode_entity st (Buffer.contents st.ent_buf) in
      if st.ent_in_attr then begin
        Buffer.add_string st.val_buf s;
        st.mode <- M_attr_value
      end
      else begin
        Buffer.add_string st.text_buf s;
        st.mode <- M_content
      end
    end
    else begin
      adv st c;
      Buffer.add_char st.ent_buf c
    end
  | M_stag_slash ->
    if c = '>' then begin
      adv st c;
      emit_start st ~self_closing:true
    end
    else fail st "expected '>' or '/>'"
  | M_etag_name ->
    if Buffer.length st.name_buf = 0 then begin
      if is_name_start c then begin
        adv st c;
        Buffer.add_char st.name_buf c
      end
      else fail st "expected a name"
    end
    else if is_name_char c then begin
      adv st c;
      Buffer.add_char st.name_buf c
    end
    else begin
      st.mode <- M_etag_end;
      handle st c
    end
  | M_etag_end ->
    if is_space c then adv st c
    else if c = '>' then begin
      adv st c;
      let close = Buffer.contents st.name_buf in
      (match st.stack with
       | parent :: rest ->
         if not (String.equal close parent) then
           fail st
             (Printf.sprintf "closing tag </%s> does not match <%s>" close
                parent);
         st.on_event (End_element close);
         st.stack <- rest;
         st.depth <- st.depth - 1;
         st.mode <- end_markup_mode st
       | [] ->
         (* Unreachable: M_etag_* is only entered with depth > 0. *)
         fail st "unmatched closing tag")
    end
    else fail st "expected '>' in closing tag"
  | M_bang ->
    if c = '-' then begin
      adv st c;
      st.mode <- M_comment_open
    end
    else if st.depth > 0 && c = '[' then begin
      adv st c;
      st.mode <- M_cdata_open 0
    end
    else if st.depth = 0 && c = 'D' then begin
      adv st c;
      st.mode <- M_doctype 1
    end
    else bang_fail st
  | M_comment_open ->
    if c = '-' then begin
      adv st c;
      st.mode <- M_comment
    end
    else bang_fail st
  | M_comment ->
    adv st c;
    if c = '-' then st.mode <- M_comment_dash
  | M_comment_dash ->
    adv st c;
    st.mode <- (if c = '-' then M_comment_dash2 else M_comment)
  | M_comment_dash2 ->
    adv st c;
    if c = '>' then st.mode <- end_markup_mode st
    else if c <> '-' then st.mode <- M_comment
  | M_pi ->
    adv st c;
    if c = '?' then st.mode <- M_pi_q
  | M_pi_q ->
    adv st c;
    if c = '>' then st.mode <- end_markup_mode st
    else if c <> '?' then st.mode <- M_pi
  | M_doctype k ->
    if c = "DOCTYPE".[k] then begin
      adv st c;
      st.mode <- (if k = 6 then M_doctype_body else M_doctype (k + 1))
    end
    else bang_fail st
  | M_doctype_body ->
    adv st c;
    if c = '>' then st.mode <- end_markup_mode st
    else if c = '[' then st.mode <- M_doctype_subset
    else if c = '"' || c = '\'' then st.mode <- M_doctype_quoted (c, false)
  | M_doctype_subset ->
    adv st c;
    if c = ']' then st.mode <- M_doctype_body
    else if c = '"' || c = '\'' then st.mode <- M_doctype_quoted (c, true)
    else if c = '<' then st.mode <- M_doctype_markup 0
  | M_doctype_quoted (q, in_subset) ->
    adv st c;
    if c = q then
      st.mode <- (if in_subset then M_doctype_subset else M_doctype_body)
  | M_doctype_markup k ->
    (* A comment is skipped whole, quotes and brackets included; any
       other declaration goes on as subset text from this character. *)
    if k <= 2 && c <> (if k = 0 then '!' else '-') then begin
      st.mode <- M_doctype_subset;
      handle st c
    end
    else begin
      adv st c;
      st.mode <-
        (match k with
         | 0 | 1 | 2 -> M_doctype_markup (k + 1)
         | 3 -> if c = '-' then M_doctype_markup 4 else M_doctype_markup 3
         | 4 -> if c = '-' then M_doctype_markup 5 else M_doctype_markup 3
         | _ ->
           if c = '>' then M_doctype_subset
           else if c = '-' then M_doctype_markup 5
           else M_doctype_markup 3)
    end
  | M_cdata_open k ->
    if c = "CDATA[".[k] then begin
      adv st c;
      st.mode <- (if k = 5 then M_cdata else M_cdata_open (k + 1))
    end
    else bang_fail st
  | M_cdata ->
    adv st c;
    if c = ']' then st.mode <- M_cdata_rb else Buffer.add_char st.text_buf c
  | M_cdata_rb ->
    adv st c;
    if c = ']' then st.mode <- M_cdata_rb2
    else begin
      Buffer.add_char st.text_buf ']';
      Buffer.add_char st.text_buf c;
      st.mode <- M_cdata
    end
  | M_cdata_rb2 ->
    adv st c;
    if c = '>' then st.mode <- M_content
    else if c = ']' then Buffer.add_char st.text_buf ']'
    else begin
      Buffer.add_string st.text_buf "]]";
      Buffer.add_char st.text_buf c;
      st.mode <- M_cdata
    end

(* A high bit in each byte of [x] that is zero, exact up to the first
   such byte (borrows only disturb the bytes above it). *)
let zero_bytes x =
  Int64.(logand (logand (sub x 0x0101010101010101L) (lognot x)) 0x8080808080808080L)

let splat c = Int64.mul 0x0101010101010101L (Int64.of_int (Char.code c))

let newlines = splat '\n'

(* Consume the run of bytes from [i] up to the first [a] or [b] (or
   [limit]) into [into], counting lines as it goes; returns the run's
   end.  Words of eight bytes holding no [a], [b] or newline are skipped
   whole. *)
let scan_run st buf i limit a b into =
  let wa = splat a and wb = splat b in
  let j = ref i and line = ref st.line and line_start = ref (-1) in
  let stop = ref false in
  while (not !stop) && !j < limit do
    if
      !j + 8 <= limit
      &&
      let w = Bytes.get_int64_le buf !j in
      Int64.(
        equal 0L
          (logor
             (logor (zero_bytes (logxor w wa)) (zero_bytes (logxor w wb)))
             (zero_bytes (logxor w newlines))))
    then j := !j + 8
    else begin
      let c = Bytes.unsafe_get buf !j in
      if c = a || c = b then stop := true
      else begin
        if c = '\n' then begin
          incr line;
          line_start := !j + 1
        end;
        incr j
      end
    end
  done;
  if !line_start >= 0 then begin
    st.line <- !line;
    st.col <- !j - !line_start + 1
  end
  else st.col <- st.col + (!j - i);
  st.offset <- st.offset + (!j - i);
  Buffer.add_subbytes into buf i (!j - i);
  !j

(* Consume the run of name characters from [i] into the name buffer;
   names hold no newline. *)
let name_run st buf i limit =
  let j = ref i in
  while !j < limit && is_name_char (Bytes.unsafe_get buf !j) do
    incr j
  done;
  st.col <- st.col + (!j - i);
  st.offset <- st.offset + (!j - i);
  Buffer.add_subbytes st.name_buf buf i (!j - i);
  !j

let feed st buf pos len =
  if st.finished then invalid_arg "Xml_parser.feed: parser already finished";
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg
      (Printf.sprintf "Xml_parser.feed: slice (%d, %d) out of bounds (%d)" pos
         len (Bytes.length buf));
  let limit = pos + len in
  let i = ref pos in
  while !i < limit do
    let c = Bytes.unsafe_get buf !i in
    match st.mode with
    | M_content when c <> '<' && c <> '&' ->
      i := scan_run st buf !i limit '<' '&' st.text_buf
    | M_cdata when c <> ']' -> i := scan_run st buf !i limit ']' ']' st.text_buf
    | M_attr_value when c <> st.quote && c <> '&' ->
      i := scan_run st buf !i limit st.quote '&' st.val_buf
    | (M_stag_name | M_attr_name) when is_name_char c ->
      i := name_run st buf !i limit
    | M_etag_name
      when (Buffer.length st.name_buf > 0 && is_name_char c) || is_name_start c ->
      i := name_run st buf !i limit
    | _ ->
      handle st c;
      incr i
  done

let feed_string st s = feed st (Bytes.unsafe_of_string s) 0 (String.length s)

(* ----- JSON string bodies -----

   A client sends a document state as the body of a JSON string, so the
   parser's input is often escaped text.  The one validator and the one
   decoder of such bodies live here, beside the run scanners whose word
   test they share: [Json] reads every request string with them, and a
   graft unescapes a state's body straight into [feed]. *)

exception Json_error of int * string

let json_error at msg = raise (Json_error (at, msg))

(* A high bit in each byte of [w] below 0x20 (or, with [w] or'ed in, of
   0x80 and above): the zero-byte test's borrow against 0x20.  Word
   constants in these loops are literals ('"' is 0x22, '\\' 0x5c): a
   [splat] at toplevel is a boxed global, which made them a third
   slower. *)
let below_space w = Int64.(logand (sub w 0x2020202020202020L) (lognot w))

(* End of the run of bytes of [s] from [i] (to [n] at the latest) that
   print as themselves in a JSON string: anything but '"', '\\' or a
   byte below 0x20. *)
let json_plain_run s i n =
  let j = ref i in
  while
    !j + 8 <= n
    &&
    let w = String.get_int64_le s !j in
    Int64.(
      equal 0L
        (logor
           (logor
              (zero_bytes (logxor w 0x2222222222222222L))
              (zero_bytes (logxor w 0x5c5c5c5c5c5c5c5cL)))
           (logand (below_space w) 0x8080808080808080L)))
  do
    j := !j + 8
  done;
  while
    !j < n
    &&
    let c = String.unsafe_get s !j in
    c <> '"' && c <> '\\' && c >= ' '
  do
    incr j
  done;
  !j

(* The next '\\' of [s] in [i, n), or [n]. *)
let backslash_run s i n =
  let j = ref i in
  while
    !j + 8 <= n
    && Int64.equal 0L
         (zero_bytes
            (Int64.logxor (String.get_int64_le s !j) 0x5c5c5c5c5c5c5c5cL))
  do
    j := !j + 8
  done;
  while !j < n && String.unsafe_get s !j <> '\\' do
    incr j
  done;
  !j

(* The four hex digits at [p] of a \u escape. *)
let u16 s p n =
  if p + 4 > n then json_error p "truncated \\u escape";
  let digit k =
    match String.unsafe_get s (p + k) with
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | _ -> json_error p "invalid hex digit in \\u escape"
  in
  (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4) lor digit 3

let utf8_length cp =
  if cp < 0x80 then 1 else if cp < 0x800 then 2 else if cp < 0x10000 then 3
  else 4

(* The end of the well-formed UTF-8 sequence (RFC 3629) whose lead byte,
   0x80 or above, is at [k]: no overlong form, no surrogate, nothing past
   U+10FFFF.  The error points at the lead byte. *)
let utf8_end s k n =
  let byte i = if i < n then Char.code (String.unsafe_get s i) else 0 in
  let c = Char.code (String.unsafe_get s k) and b1 = byte (k + 1) in
  if c >= 0xC2 && c <= 0xDF && b1 land 0xC0 = 0x80 then k + 2
  else
    let b2 = byte (k + 2) in
    if
      c >= 0xE0 && c <= 0xEF
      && b1 >= (if c = 0xE0 then 0xA0 else 0x80)
      && b1 <= (if c = 0xED then 0x9F else 0xBF)
      && b2 land 0xC0 = 0x80
    then k + 3
    else if
      c >= 0xF0 && c <= 0xF4
      && b1 >= (if c = 0xF0 then 0x90 else 0x80)
      && b1 <= (if c = 0xF4 then 0x8F else 0xBF)
      && b2 land 0xC0 = 0x80
      && byte (k + 3) land 0xC0 = 0x80
    then k + 4
    else json_error k "ill-formed UTF-8"

(* Eight bytes a step while a word holds no quote, backslash, control
   byte or byte of 0x80 or above, so ASCII runs cost what they did
   before validation; byte by byte otherwise.  [saved] counts the raw
   bytes escapes take beyond what they decode to. *)
let json_scan s i n =
  let j = ref i and saved = ref 0 and quote = ref (-1) in
  while !quote < 0 do
    while
      !j + 8 <= n
      &&
      let w = String.get_int64_le s !j in
      Int64.(
        equal 0L
          (logor
             (logor
                (zero_bytes (logxor w 0x2222222222222222L))
                (zero_bytes (logxor w 0x5c5c5c5c5c5c5c5cL)))
             (logand (logor (below_space w) w) 0x8080808080808080L)))
    do
      j := !j + 8
    done;
    while
      !j < n
      &&
      let c = String.unsafe_get s !j in
      c >= ' ' && c < '\x80' && c <> '"' && c <> '\\'
    do
      incr j
    done;
    if !j >= n then json_error n "unterminated string"
    else begin
      let k = !j in
      let c = String.unsafe_get s k in
      if c = '"' then quote := k
      else if c = '\\' then begin
        let p = k + 1 in
        if p >= n then json_error n "unterminated escape";
        match String.unsafe_get s p with
        | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' ->
          incr saved;
          j := p + 1
        | 'u' ->
          let hi = u16 s (p + 1) n and q = p + 5 in
          if hi >= 0xD800 && hi <= 0xDBFF then
            if q + 1 < n && s.[q] = '\\' && s.[q + 1] = 'u' then begin
              let lo = u16 s (q + 2) n in
              if lo < 0xDC00 || lo > 0xDFFF then
                json_error (q + 6) "invalid low surrogate";
              saved := !saved + 8;
              j := q + 6
            end
            else json_error q "unpaired high surrogate"
          else if hi >= 0xDC00 && hi <= 0xDFFF then
            json_error q "unpaired low surrogate"
          else begin
            saved := !saved + 6 - utf8_length hi;
            j := q
          end
        | c -> json_error (p + 1) (Printf.sprintf "invalid escape \\%c" c)
      end
      else if c < ' ' then json_error k "control character in string"
      else begin
        (* Text that is not all ASCII: byte by byte, each sequence
           validated, up to the next quote, backslash or control. *)
        let k = ref (utf8_end s k n) in
        while
          !k < n
          &&
          let c = String.unsafe_get s !k in
          c >= ' ' && c <> '"' && c <> '\\'
        do
          if String.unsafe_get s !k < '\x80' then incr k
          else k := utf8_end s !k n
        done;
        j := !k
      end
    end
  done;
  (!quote, !quote - i - !saved)

let put_utf8 b cp =
  let set i v = Bytes.unsafe_set b i (Char.unsafe_chr v) in
  if cp < 0x80 then set 0 cp
  else if cp < 0x800 then begin
    set 0 (0xC0 lor (cp lsr 6));
    set 1 (0x80 lor (cp land 0x3F))
  end
  else if cp < 0x10000 then begin
    set 0 (0xE0 lor (cp lsr 12));
    set 1 (0x80 lor ((cp lsr 6) land 0x3F));
    set 2 (0x80 lor (cp land 0x3F))
  end
  else begin
    set 0 (0xF0 lor (cp lsr 18));
    set 1 (0x80 lor ((cp lsr 12) land 0x3F));
    set 2 (0x80 lor ((cp lsr 6) land 0x3F));
    set 3 (0x80 lor (cp land 0x3F))
  end;
  utf8_length cp

let json_unescape s i j emit =
  let b = Bytes.unsafe_of_string s and piece = Bytes.create 4 in
  let k = ref i in
  while !k < j do
    let e = backslash_run s !k j in
    if e > !k then emit b !k (e - !k) e;
    if e < j then begin
      let next = ref (e + 2) and len = ref 1 in
      (match String.unsafe_get s (e + 1) with
       | 'u' ->
         let hi = u16 s (e + 2) j in
         if hi >= 0xD800 && hi <= 0xDBFF then begin
           let lo = u16 s (e + 8) j in
           next := e + 12;
           len := put_utf8 piece (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
         end
         else begin
           next := e + 6;
           len := put_utf8 piece hi
         end
       | c ->
         Bytes.unsafe_set piece 0
           (match c with
            | 'b' -> '\b'
            | 'f' -> '\012'
            | 'n' -> '\n'
            | 'r' -> '\r'
            | 't' -> '\t'
            | c -> c));
      emit piece 0 !len !next;
      k := !next
    end
    else k := j
  done

let finish st =
  if st.finished then invalid_arg "Xml_parser.finish: parser already finished";
  st.finished <- true;
  match st.mode with
  | M_misc -> if not st.seen_root then fail st "expected a root element"
  | M_content -> fail st "unexpected end of input inside an element"
  | M_lt ->
    if in_epilog st then
      fail_at st.lt_line st.lt_col "trailing content after the root element"
    else fail st "expected a name"
  | M_bang | M_comment_open | M_doctype _ | M_cdata_open _ -> bang_fail st
  | M_comment | M_comment_dash | M_comment_dash2 -> fail st "unterminated comment"
  | M_pi | M_pi_q -> fail st "unterminated processing instruction"
  | M_doctype_body | M_doctype_subset | M_doctype_quoted _ | M_doctype_markup _ ->
    fail st "unterminated DOCTYPE"
  | M_cdata | M_cdata_rb | M_cdata_rb2 -> fail st "unterminated CDATA section"
  | M_stag_name | M_stag_space | M_stag_slash -> fail st "expected '>' or '/>'"
  | M_attr_name | M_attr_eq -> fail st "expected '=' after attribute name"
  | M_attr_value_start -> fail st "expected a quoted attribute value"
  | M_attr_value -> fail st "unterminated attribute value"
  | M_entity -> fail st "unterminated entity reference"
  | M_etag_name ->
    if Buffer.length st.name_buf = 0 then fail st "expected a name"
    else fail st "expected '>' in closing tag"
  | M_etag_end -> fail st "expected '>' in closing tag"

(* ----- Tree building: the one event -> Tree handler ----- *)

let tree_builder () =
  let doc = Tree.create () in
  let stack = ref [] in
  let on_event = function
    | Start_element (name, attrs) ->
      let parent = match !stack with n :: _ -> n | [] -> Tree.no_node in
      stack := Tree.new_element ~attrs doc ~parent name :: !stack
    | Text s ->
      (match !stack with
       | parent :: _ -> ignore (Tree.new_text doc ~parent s)
       | [] -> ())
    | End_element _ ->
      (match !stack with _ :: rest -> stack := rest | [] -> ())
  in
  (doc, on_event)

let parse ?preserve_whitespace input =
  let doc, on_event = tree_builder () in
  let st = create ?preserve_whitespace ~on_event () in
  feed_string st input;
  finish st;
  doc
