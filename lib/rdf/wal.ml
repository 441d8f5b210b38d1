(* Write-ahead log for triple stores (DESIGN §4j).

   A WAL file is a flat sequence of framed records:

     [tag u8] [len u32le] [payload len bytes] [fnv u32le]

   where [fnv] is the FNV-1a hash of tag byte + payload.  Tags:

     'T'  a triple: three terms, each [kind u8][len u32le][bytes]
          (kind 0 = IRI, 1 = plain literal, 2 = typed literal with a
          second [len][bytes] datatype field, 3 = bnode)
     'C'  commit marker; payload = expected store size (u32le) after
          applying the batch — a cross-check against lost records
     'R'  reset: discard all triples logged so far (a compaction's
          full dump follows)
     'M'  metadata, payload "key=value" — informational, replay keeps
          the last value per key

   Durability protocol: writers buffer 'T'/'R'/'M' records and make them
   visible only under a 'C' marker, fsynced per commit.  Replay applies
   a batch exactly when its 'C' frame (checksum + size cross-check)
   validates; a torn tail — truncated frame, bad checksum, missing
   marker — drops that batch and everything after it.  Recovery is
   therefore prefix-consistent at commit granularity: no partial triple,
   no duplicate, no half-applied commit (the qcheck truncation property
   in test_persist.ml pins this).

   Compaction rewrites the whole store as one batch into a fresh file
   and atomically renames it over the log (tmp + rename), bounding
   replay time by live size rather than history length. *)

module T = Weblab_obs.Telemetry
module M = Weblab_obs.Metrics

let c_appends = T.counter "rdf.wal.appends"
let c_fsyncs = T.counter "rdf.wal.fsyncs"
let c_replayed = T.counter "rdf.wal.replayed_commits"
let c_torn = T.counter "rdf.wal.torn_tails"
let g_bytes = M.gauge "rdf.wal.bytes"

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

exception Corrupt  (* internal: torn or invalid frame/payload *)

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

type writer = {
  fd : Unix.file_descr;
  path : string;
  buf : Buffer.t;  (* frames staged since the last commit *)
}

let frame buf tag payload =
  Buffer.add_char buf tag;
  add_u32 buf (String.length payload);
  Buffer.add_string buf payload;
  add_u32 buf (fnv1a tag payload)

(* A writer always starts a fresh log: whatever was at [path] (a closed
   session's log under the same id, a torn compaction [.tmp]) is
   truncated, never appended to. *)
let open_writer path =
  let fd =
    Unix.openfile path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_APPEND ]
      0o644
  in
  { fd; path; buf = Buffer.create 4096 }

let log_triple w (s, p, o) =
  let payload = Buffer.create 64 in
  encode_term payload s;
  encode_term payload p;
  encode_term payload o;
  frame w.buf 'T' (Buffer.contents payload)

let log_reset w = frame w.buf 'R' ""

let log_meta w ~key ~value = frame w.buf 'M' (key ^ "=" ^ value)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

(* Seal the staged frames under a commit marker and force them to disk.
   Nothing staged and nothing to mark -> no-op (no empty commits). *)
let commit w ~store_size =
  let payload = Buffer.create 4 in
  add_u32 payload store_size;
  frame w.buf 'C' (Buffer.contents payload);
  write_all w.fd (Buffer.contents w.buf);
  Buffer.clear w.buf;
  Unix.fsync w.fd;
  T.incr c_appends;
  T.incr c_fsyncs;
  (* WAL size is a point-in-time value, sampled at the commit boundary
     (right after the fsync, so the gauge never reads ahead of disk).
     The fstat only runs when the recorder is on. *)
  if T.enabled () then M.set g_bytes (Unix.fstat w.fd).Unix.st_size

let close_writer w =
  (* Staged-but-uncommitted frames are dropped by design: they were
     never made durable, so replay must not see them. *)
  Buffer.clear w.buf;
  Unix.close w.fd

(* ----- replay ----- *)

type replay_stats = {
  rp_commits : int;  (** committed batches applied *)
  rp_triples : int;  (** triples applied (post-dedup adds may be fewer) *)
  rp_resets : int;
  rp_torn : bool;  (** a torn/corrupt tail was dropped *)
  rp_meta : (string * string) list;  (** last value per key, key order of first sight *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

exception Size_mismatch of int
(* internal: a batch failed its size cross-check after being applied;
   carries the end offset of the last validated commit *)

(* Decode the frames in [data.[0, stop)] into a fresh store.  Batches are
   buffered and applied only when their commit marker validates, so a
   torn tail can never leave a half-applied commit behind.  A reset
   rebinds the store to a fresh one, hence the ref. *)
let decode data stop =
  let pending = ref [] in  (* reversed ops since the last valid 'C' *)
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
          (* Apply the batch, then verify the size cross-check the
             writer recorded.  The store has no delete, so a mismatch
             cannot be undone in place: [replay] decodes again, up to
             the end of the last validated commit. *)
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
  (* Frames after the last valid commit (including a clean-but-unmarked
     tail) are dropped: not durable, not applied. *)
  ( !st,
    { rp_commits = !commits;
      rp_triples = !applied;
      rp_resets = !resets;
      rp_torn = !torn;
      rp_meta =
        List.rev_map (fun k -> (k, Hashtbl.find meta k)) !meta_order } )

(* A batch that fails its size cross-check is torn like any other: the
   second decode stops at the end of the last validated commit, where
   every batch validated the first time. *)
let replay path =
  let data = if Sys.file_exists path then read_file path else "" in
  let st, rp =
    match decode data (String.length data) with
    | r -> r
    | exception Size_mismatch good_end ->
      let st, rp = decode data good_end in
      (st, { rp with rp_torn = true })
  in
  T.add c_replayed rp.rp_commits;
  if rp.rp_torn then T.incr c_torn;
  (st, rp)

(* ----- compaction ----- *)

(* Rewrite [store] as a single reset + full-dump commit into a fresh
   file and atomically rename it over [path].  Metadata is re-logged so
   it survives compaction.  A [.tmp] left by a crashed compaction is
   truncated by [open_writer]: appending after its torn frame would make
   the renamed log replay to nothing. *)
let compact_to path ?(meta = []) store =
  let tmp = path ^ ".tmp" in
  let w = open_writer tmp in
  Fun.protect
    ~finally:(fun () -> try Unix.close w.fd with Unix.Unix_error _ -> ())
    (fun () ->
      log_reset w;
      Triple_store.iter store (fun tr -> log_triple w tr);
      List.iter (fun (key, value) -> log_meta w ~key ~value) meta;
      commit w ~store_size:(Triple_store.size store));
  Unix.rename tmp path
