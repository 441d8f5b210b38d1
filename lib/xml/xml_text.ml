(* A document state's text as it arrived: plain, or the escaped body of
   a JSON string inside a request line.  Holding the line instead of a
   decoded copy is what lets a commit skip the part of a state it shares
   with the last one, in the JSON scan as in the parse. *)

type t = { raw : string; off : int; len : int; escaped : bool }

let of_string s = { raw = s; off = 0; len = String.length s; escaped = false }

let of_json raw ~off ~len = { raw; off; len; escaped = true }

let pieces t from emit =
  let stop = t.off + t.len in
  if t.escaped then Xml_parser.json_unescape t.raw (t.off + from) stop emit
  else if from < t.len then
    emit (Bytes.unsafe_of_string t.raw) (t.off + from) (t.len - from) stop

let to_string t =
  if not t.escaped then
    if t.off = 0 && t.len = String.length t.raw then t.raw
    else String.sub t.raw t.off t.len
  else begin
    let b = Buffer.create t.len in
    pieces t 0 (fun src off len _ -> Buffer.add_subbytes b src off len);
    Buffer.contents b
  end
