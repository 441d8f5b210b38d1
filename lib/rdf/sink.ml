(* A bounded byte stage with a drain.  One [Bytes] of the configured
   size is filled in place; a write that finds it full drains it first,
   and a long string is copied in stage-sized pieces, so nothing written
   through a sink is ever held whole. *)

type t = {
  buf : Bytes.t;
  mutable pos : int;  (* staged bytes: [buf.[0 .. pos-1]] *)
  mutable drained : int;  (* bytes handed to [drain] so far *)
  drain : Bytes.t -> int -> int -> unit;
}

let chunk = 65536

let create ~size drain =
  if size < 1 then invalid_arg "Sink.create: size < 1";
  { buf = Bytes.create size; pos = 0; drained = 0; drain }

let size t = Bytes.length t.buf

let flush t =
  if t.pos > 0 then begin
    let n = t.pos in
    (* Reset before draining, so a drain that raises leaves no bytes to
       be drained twice. *)
    t.pos <- 0;
    t.drained <- t.drained + n;
    t.drain t.buf 0 n
  end

let add_char t c =
  if t.pos = Bytes.length t.buf then flush t;
  Bytes.unsafe_set t.buf t.pos c;
  t.pos <- t.pos + 1

let add_substring t s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Sink.add_substring";
  let off = ref off and len = ref len in
  while !len > 0 do
    if t.pos = Bytes.length t.buf then flush t;
    let k = min !len (Bytes.length t.buf - t.pos) in
    Bytes.unsafe_blit_string s !off t.buf t.pos k;
    t.pos <- t.pos + k;
    off := !off + k;
    len := !len - k
  done

let add_string t s = add_substring t s 0 (String.length s)

let length t = t.drained + t.pos

let rewind t mark =
  if mark >= t.drained && mark <= length t then begin
    t.pos <- mark - t.drained;
    true
  end
  else false
