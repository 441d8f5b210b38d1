(* Write-ahead log for triple stores (DESIGN §4j).

   A WAL file is a flat sequence of framed records:

     [tag u8] [len u32le] [payload len bytes] [fnv u32le]

   where [fnv] is the FNV-1a hash of tag byte + payload.  Tags:

     'T'  a triple: three terms, each [kind u8][len u32le][bytes]
          (kind 0 = IRI, 1 = plain literal, 2 = typed literal with a
          second [len][bytes] datatype field, 3 = bnode)
     'C'  commit marker; payload = expected store size (u32le) after
          applying the batch — a cross-check against lost records
     'R'  reset: discard all triples logged so far.  Writers never
          stage one; replay honours it because logs that older versions
          compacted at close begin with one
     'M'  metadata, payload "key=value" — informational, replay keeps
          the last value per key

   Durability protocol: writers stage 'T'/'M' records and make them
   visible only under a 'C' marker, fsynced per commit.  Replay applies
   a batch exactly when its 'C' frame (checksum + size cross-check)
   validates; a torn tail — truncated frame, bad checksum, missing
   marker — drops that batch and everything after it.  Recovery is
   therefore prefix-consistent at commit granularity: no partial triple,
   no duplicate, no half-applied commit (the qcheck truncation property
   in test_persist.ml pins this).

   A log is only ever appended to: a session's export store only grows,
   and its log holds exactly the triples the store gained, so a closed
   log already is the store's snapshot and nothing rewrites it.

   Memory is bounded by [chunk], not by the log: frames are encoded
   straight into one staging buffer that is written out whenever the
   next frame would not fit, and replay reads the file through one
   buffer of the same size, applying triples as they are decoded.  A
   single frame larger than [chunk] is staged or read whole. *)

module T = Weblab_obs.Telemetry
module M = Weblab_obs.Metrics

let c_appends = T.counter "rdf.wal.appends"
let c_fsyncs = T.counter "rdf.wal.fsyncs"
let c_dir_fsyncs = T.counter "rdf.wal.dir_fsyncs"
let c_replayed = T.counter "rdf.wal.replayed_commits"
let c_torn = T.counter "rdf.wal.torn_tails"
let g_bytes = M.gauge "rdf.wal.bytes"

let chunk = 65536

(* ----- little-endian u32, FNV-1a ----- *)

let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff

(* FNV-1a over the tag byte and the payload [b.[off, off + len)], which
   the caller has bounds-checked (staged or read whole). *)
let fnv1a tag b off len =
  let h = ref ((0x811c9dc5 lxor Char.code tag) * 0x01000193 land 0xffffffff) in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x01000193 land 0xffffffff
  done;
  !h

(* ----- the I/O boundary: every write and every fsync ----- *)

type writer = {
  fd : Unix.file_descr;
  mutable stage : Bytes.t;  (* staged frames: [stage.[0, fill)] *)
  mutable fill : int;
}

(* The one place log bytes reach a file: the staged frames, as staged. *)
let drain w =
  let off = ref 0 in
  while !off < w.fill do
    off := !off + Unix.write w.fd w.stage !off (w.fill - !off)
  done;
  w.fill <- 0;
  (* Only a frame larger than [chunk] grows the stage past it. *)
  if Bytes.length w.stage > chunk then w.stage <- Bytes.create chunk

(* The one place anything is forced to disk: a log, or its directory. *)
let fsync counter fd =
  Unix.fsync fd;
  T.incr counter

(* Make a created log's directory entry survive power loss. *)
let sync_dir path =
  let fd = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> fsync c_dir_fsyncs fd)

(* ----- writer ----- *)

(* A writer always starts a fresh log: whatever was at [path] (a closed
   session's log under the same id) is truncated, never appended to. *)
let open_writer path =
  let fd =
    Unix.openfile path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_APPEND ]
      0o644
  in
  (try sync_dir path
   with e ->
     Unix.close fd;
     raise e);
  { fd; stage = Bytes.create 4096; fill = 0 }

(* Room for one whole [n]-byte frame.  Past [chunk] bytes the staged
   frames are written out first, so a batch is never held whole; replay
   applies a batch only under its marker, so frames written ahead of it
   are not yet visible. *)
let reserve w n =
  if w.fill + n > Bytes.length w.stage then begin
    if w.fill + n > chunk && w.fill > 0 then drain w;
    if w.fill + n > Bytes.length w.stage then begin
      let stage =
        Bytes.create (max (w.fill + n) (min chunk (2 * Bytes.length w.stage)))
      in
      Bytes.blit w.stage 0 stage 0 w.fill;
      w.stage <- stage
    end
  end

let put_char w c =
  Bytes.set w.stage w.fill c;
  w.fill <- w.fill + 1

let put_u32 w v =
  set_u32 w.stage w.fill v;
  w.fill <- w.fill + 4

let put_string w s =
  Bytes.blit_string s 0 w.stage w.fill (String.length s);
  w.fill <- w.fill + String.length s

let put_field w s =
  put_u32 w (String.length s);
  put_string w s

(* The encoded size of a term, so a frame's length is known before its
   payload is staged. *)
let term_size = function
  | Term.Iri s | Term.Lit (s, None) | Term.Bnode s -> 5 + String.length s
  | Term.Lit (s, Some dt) -> 9 + String.length s + String.length dt

let put_term w = function
  | Term.Iri iri ->
    put_char w '\000';
    put_field w iri
  | Term.Lit (s, None) ->
    put_char w '\001';
    put_field w s
  | Term.Lit (s, Some dt) ->
    put_char w '\002';
    put_field w s;
    put_field w dt
  | Term.Bnode b ->
    put_char w '\003';
    put_field w b

(* A frame is staged as [begin_frame], exactly [len] payload bytes, then
   [end_frame], which checksums the payload where it was staged. *)
let begin_frame w tag len =
  reserve w (9 + len);
  put_char w tag;
  put_u32 w len

let end_frame w tag len = put_u32 w (fnv1a tag w.stage (w.fill - len) len)

let log_triple w (s, p, o) =
  let len = term_size s + term_size p + term_size o in
  begin_frame w 'T' len;
  put_term w s;
  put_term w p;
  put_term w o;
  end_frame w 'T' len

let log_meta w ~key ~value =
  let len = String.length key + 1 + String.length value in
  begin_frame w 'M' len;
  put_string w key;
  put_char w '=';
  put_string w value;
  end_frame w 'M' len

(* Seal the staged frames under a commit marker, write them out and
   force them to disk. *)
let commit w ~store_size =
  begin_frame w 'C' 4;
  put_u32 w store_size;
  end_frame w 'C' 4;
  drain w;
  fsync c_fsyncs w.fd;
  T.incr c_appends;
  (* WAL size is a point-in-time value, sampled at the commit boundary
     (right after the fsync, so the gauge never reads ahead of disk).
     The fstat only runs when the recorder is on. *)
  if T.enabled () then M.set g_bytes (Unix.fstat w.fd).Unix.st_size

let close_writer w =
  (* Staged-but-uncommitted frames are dropped by design: they were
     never made durable, so replay must not see them. *)
  w.fill <- 0;
  Unix.close w.fd

(* ----- replay ----- *)

type replay_stats = {
  rp_commits : int;  (** committed batches applied *)
  rp_triples : int;  (** triples applied (post-dedup adds may be fewer) *)
  rp_resets : int;
  rp_torn : bool;  (** a torn/corrupt tail was dropped *)
  rp_meta : (string * string) list;  (** last value per key, key order of first sight *)
}

exception Corrupt  (* internal: torn or invalid frame/payload *)

(* The file's bytes [0, stop) through one buffer: it holds the file
   bytes [base, base + hi), and the next frame starts at [lo]. *)
type reader = {
  rfd : Unix.file_descr;
  stop : int;
  mutable buf : Bytes.t;
  mutable base : int;
  mutable lo : int;
  mutable hi : int;
}

(* Hold at least [n] unread bytes; the caller has checked that the
   file has them before [stop]. *)
let ensure r n =
  if r.hi - r.lo < n then begin
    let keep = r.hi - r.lo in
    let buf = if n > Bytes.length r.buf then Bytes.create n else r.buf in
    Bytes.blit r.buf r.lo buf 0 keep;
    r.buf <- buf;
    r.base <- r.base + r.lo;
    r.lo <- 0;
    r.hi <- keep;
    while r.hi < n do
      let want = min (Bytes.length r.buf - r.hi) (r.stop - r.base - r.hi) in
      let got = Unix.read r.rfd r.buf r.hi want in
      if got = 0 then raise Corrupt (* the file shrank *);
      r.hi <- r.hi + got
    done
  end

(* The term at [b.[!pos]], advancing [pos]; the payload ends at [stop]. *)
let decode_term b pos stop =
  let field () =
    if !pos + 4 > stop then raise Corrupt;
    let len = get_u32 b !pos in
    if len < 0 || !pos + 4 + len > stop then raise Corrupt;
    let s = Bytes.sub_string b (!pos + 4) len in
    pos := !pos + 4 + len;
    s
  in
  if !pos >= stop then raise Corrupt;
  let kind = Bytes.get b !pos in
  incr pos;
  match kind with
  | '\000' -> Term.Iri (field ())
  | '\001' -> Term.Lit (field (), None)
  | '\002' ->
    let s = field () in
    Term.Lit (s, Some (field ()))
  | '\003' -> Term.Bnode (field ())
  | _ -> raise Corrupt

(* One pass over the file's bytes [0, stop) into a fresh store.  Each
   triple and reset is applied as it is decoded; a batch's counts and
   metadata are kept aside until its commit marker validates.  A reset
   rebinds the store to a fresh one, hence the ref.  Returns the store,
   the stats, the end of the last validated commit, and whether the
   store holds ops past it. *)
let decode fd stop =
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let r =
    { rfd = fd; stop; buf = Bytes.create (min chunk stop); base = 0; lo = 0;
      hi = 0 }
  in
  let st = ref (Triple_store.create ()) in
  let commits = ref 0 and applied = ref 0 and resets = ref 0 in
  let batch_triples = ref 0 and batch_resets = ref 0 in
  let batch_meta = ref [] in  (* reversed *)
  let torn = ref false in
  let meta : (string, string) Hashtbl.t = Hashtbl.create 4 in
  let meta_order = ref [] in
  let good_end = ref 0 in
  (try
     while r.base + r.lo < stop do
       let pos = r.base + r.lo in
       if pos + 9 > stop then raise Corrupt;
       ensure r 5;
       let tag = Bytes.get r.buf r.lo in
       let len = get_u32 r.buf (r.lo + 1) in
       if len < 0 || pos + 9 + len > stop then raise Corrupt;
       ensure r (9 + len);
       let p = r.lo + 5 in
       let e = p + len in
       if get_u32 r.buf e <> fnv1a tag r.buf p len then raise Corrupt;
       (match tag with
        | 'T' ->
          let cur = ref p in
          let s = decode_term r.buf cur e in
          let pr = decode_term r.buf cur e in
          let o = decode_term r.buf cur e in
          if !cur <> e then raise Corrupt;
          Triple_store.add !st (s, pr, o);
          incr batch_triples
        | 'R' ->
          st := Triple_store.create ();
          incr batch_resets
        | 'M' ->
          let i = ref p in
          while !i < e && Bytes.get r.buf !i <> '=' do
            incr i
          done;
          if !i = e then raise Corrupt;
          let key = Bytes.sub_string r.buf p (!i - p) in
          let value = Bytes.sub_string r.buf (!i + 1) (e - !i - 1) in
          batch_meta := (key, value) :: !batch_meta
        | 'C' ->
          if len <> 4 then raise Corrupt;
          (* A batch that fails the writer's size cross-check lost a
             frame: it is torn like any other. *)
          if Triple_store.size !st <> get_u32 r.buf p then raise Corrupt;
          List.iter
            (fun (k, v) ->
              if not (Hashtbl.mem meta k) then meta_order := k :: !meta_order;
              Hashtbl.replace meta k v)
            (List.rev !batch_meta);
          incr commits;
          applied := !applied + !batch_triples;
          resets := !resets + !batch_resets;
          batch_triples := 0;
          batch_resets := 0;
          batch_meta := [];
          good_end := pos + 9 + len
        | _ -> raise Corrupt);
       r.lo <- r.lo + 9 + len
     done
   with Corrupt -> torn := true);
  ( !st,
    { rp_commits = !commits;
      rp_triples = !applied;
      rp_resets = !resets;
      rp_torn = !torn;
      rp_meta =
        List.rev_map (fun k -> (k, Hashtbl.find meta k)) !meta_order },
    !good_end,
    !batch_triples > 0 || !batch_resets > 0 )

(* Frames after the last valid commit (including a clean-but-unmarked
   tail) are dropped: not durable, not applied.  The store has no
   delete, so when the first pass applied any of them, the one recovery
   path decodes again up to the end of the last validated commit, where
   every batch validated the first time. *)
let replay path =
  let st, rp =
    if not (Sys.file_exists path) then
      ( Triple_store.create (),
        { rp_commits = 0; rp_triples = 0; rp_resets = 0; rp_torn = false;
          rp_meta = [] } )
    else
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          match decode fd (Unix.fstat fd).Unix.st_size with
          | st, rp, _, false -> (st, rp)
          | _, rp, good_end, true ->
            let st, rp', _, _ = decode fd good_end in
            (st, { rp' with rp_torn = rp.rp_torn }))
  in
  T.add c_replayed rp.rp_commits;
  if rp.rp_torn then T.incr c_torn;
  (st, rp)
