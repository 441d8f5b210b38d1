(* The whole-string WAL codec {!Weblab_rdf.Wal} used before it staged
   frames in a fixed buffer and read them through a bounded one: each
   frame's payload built in its own [Buffer], the checksum folded over a
   string, a batch (or a whole compaction dump) copied out of one
   growing [Buffer], and replay over the whole file read as one string
   with a [String.sub] per frame and the batch held as a list of decoded
   ops until its commit marker validates.  Kept as the byte-identity
   oracle for the writer, the result oracle for replay, and the writer
   of the compacted logs (a reset, then the dump) that older versions
   left and replay still reads. *)

open Weblab_rdf

(* ----- FNV-1a over tag + payload ----- *)

let fnv1a tag payload =
  let h = ref 0x811c9dc5 in
  let step b = h := (!h lxor b) * 0x01000193 land 0xffffffff in
  step (Char.code tag);
  String.iter (fun c -> step (Char.code c)) payload;
  !h

(* ----- little-endian u32 ----- *)

let add_u32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))

let get_u32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

(* ----- term codec ----- *)

let encode_term buf term =
  let field s =
    add_u32 buf (String.length s);
    Buffer.add_string buf s
  in
  match term with
  | Term.Iri iri ->
    Buffer.add_char buf '\000';
    field iri
  | Term.Lit (s, None) ->
    Buffer.add_char buf '\001';
    field s
  | Term.Lit (s, Some dt) ->
    Buffer.add_char buf '\002';
    field s;
    field dt
  | Term.Bnode b ->
    Buffer.add_char buf '\003';
    field b

exception Corrupt

let decode_term payload off =
  let n = String.length payload in
  let field off =
    if off + 4 > n then raise Corrupt;
    let len = get_u32 payload off in
    if len < 0 || off + 4 + len > n then raise Corrupt;
    (String.sub payload (off + 4) len, off + 4 + len)
  in
  if off >= n then raise Corrupt;
  match payload.[off] with
  | '\000' ->
    let s, off = field (off + 1) in
    (Term.Iri s, off)
  | '\001' ->
    let s, off = field (off + 1) in
    (Term.Lit (s, None), off)
  | '\002' ->
    let s, off = field (off + 1) in
    let dt, off = field off in
    (Term.Lit (s, Some dt), off)
  | '\003' ->
    let s, off = field (off + 1) in
    (Term.Bnode s, off)
  | _ -> raise Corrupt

(* ----- writer ----- *)

type t = {
  file : Buffer.t;  (* the bytes a real log would hold on disk *)
  buf : Buffer.t;  (* frames staged since the last commit *)
}

let create () = { file = Buffer.create 4096; buf = Buffer.create 4096 }

let frame buf tag payload =
  Buffer.add_char buf tag;
  add_u32 buf (String.length payload);
  Buffer.add_string buf payload;
  add_u32 buf (fnv1a tag payload)

let log_triple w (s, p, o) =
  let payload = Buffer.create 64 in
  encode_term payload s;
  encode_term payload p;
  encode_term payload o;
  frame w.buf 'T' (Buffer.contents payload)

let log_reset w = frame w.buf 'R' ""

let log_meta w ~key ~value = frame w.buf 'M' (key ^ "=" ^ value)

let commit w ~store_size =
  let payload = Buffer.create 4 in
  add_u32 payload store_size;
  frame w.buf 'C' (Buffer.contents payload);
  Buffer.add_string w.file (Buffer.contents w.buf);
  Buffer.clear w.buf

let contents w = Buffer.contents w.file

let compact ?(meta = []) store =
  let w = create () in
  log_reset w;
  Triple_store.iter store (fun tr -> log_triple w tr);
  List.iter (fun (key, value) -> log_meta w ~key ~value) meta;
  commit w ~store_size:(Triple_store.size store);
  contents w

(* ----- replay ----- *)

exception Size_mismatch of int

let decode_prefix data stop =
  let pending = ref [] in
  let commits = ref 0 and applied = ref 0 and resets = ref 0 in
  let torn = ref false in
  let meta : (string, string) Hashtbl.t = Hashtbl.create 4 in
  let meta_order = ref [] in
  let st = ref (Triple_store.create ()) in
  let pos = ref 0 and good_end = ref 0 in
  (try
     while !pos < stop do
       if !pos + 5 > stop then raise Corrupt;
       let tag = data.[!pos] in
       let len = get_u32 data (!pos + 1) in
       if len < 0 || !pos + 5 + len + 4 > stop then raise Corrupt;
       let payload = String.sub data (!pos + 5) len in
       let sum = get_u32 data (!pos + 5 + len) in
       if sum <> fnv1a tag payload then raise Corrupt;
       (match tag with
        | 'T' ->
          let s, off = decode_term payload 0 in
          let p, off = decode_term payload off in
          let o, off = decode_term payload off in
          if off <> String.length payload then raise Corrupt;
          pending := `Triple (s, p, o) :: !pending
        | 'R' -> pending := `Reset :: !pending
        | 'M' -> (
          match String.index_opt payload '=' with
          | Some i ->
            let key = String.sub payload 0 i in
            let value = String.sub payload (i + 1) (String.length payload - i - 1) in
            pending := `Meta (key, value) :: !pending
          | None -> raise Corrupt)
        | 'C' ->
          if String.length payload <> 4 then raise Corrupt;
          let expected = get_u32 payload 0 in
          let ops = List.rev !pending in
          List.iter
            (function
              | `Reset -> st := Triple_store.create ()
              | `Triple tr -> Triple_store.add !st tr
              | `Meta _ -> ())
            ops;
          if Triple_store.size !st <> expected then
            raise (Size_mismatch !good_end);
          List.iter
            (function
              | `Meta (k, v) ->
                if not (Hashtbl.mem meta k) then meta_order := k :: !meta_order;
                Hashtbl.replace meta k v
              | `Reset -> incr resets
              | `Triple _ -> incr applied)
            ops;
          pending := [];
          incr commits;
          good_end := !pos + 5 + len + 4
        | _ -> raise Corrupt);
       pos := !pos + 5 + len + 4
     done
   with Corrupt -> torn := true);
  ( !st,
    { Wal.rp_commits = !commits;
      rp_triples = !applied;
      rp_resets = !resets;
      rp_torn = !torn;
      rp_meta =
        List.rev_map (fun k -> (k, Hashtbl.find meta k)) !meta_order } )

let decode data =
  match decode_prefix data (String.length data) with
  | r -> r
  | exception Size_mismatch good_end ->
    let st, rp = decode_prefix data good_end in
    (st, { rp with Wal.rp_torn = true })
