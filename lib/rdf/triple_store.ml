(* Dictionary-encoded columnar triple store (DESIGN §4j).

   Triples are three parallel int arrays of {!Term_dict} ids in insertion
   order — the column layout of the structure-of-arrays arena applied to
   the RDF substrate.  Every public observation (iteration order, find
   result order, BGP solutions, Turtle bytes) is identical to the boxed
   assoc-list store this replaced, which the test suite keeps as an
   oracle and property-tests exactly that.

   Pattern lookup is LSM-flavoured: a merged sorted base (three
   permutation arrays over the columns, in SPO, POS and OSP key order)
   answers any bound prefix with two binary searches, and an unsorted
   tail of recent inserts is scanned linearly.  Every bound combination
   is a prefix of one of the three orders:

     s | s,p | s,p,o -> SPO      p | p,o -> POS      o | o,s -> OSP

   so [find] never post-filters and [count] is pure arithmetic on range
   bounds (plus the bounded tail scan) — no list is materialized.

   Merges are paced by two bounds.  A write merges only once the tail is
   as large as the base, so a store that is only written doubles its base
   at every merge and each triple is merged O(1) times amortized: a store
   of n triples does about log2 (n / 1024) merges of O(n) each, plus one
   sort of every triple per key order.  A probe merges first whenever the
   tail holds more than {!probe_tail_limit} triples, so the linear tail
   scan stays small; a read can therefore mutate the store, and callers
   that share a store across threads must serialize reads as well as
   writes.

   Deduplication is an integer probe: exact binary search in the SPO base
   plus an open-addressing probe over the tail's triple indices, instead
   of building an N-Triples string per insert as the old store did. *)

module T = Weblab_obs.Telemetry
module M = Weblab_obs.Metrics

let c_adds = T.counter "rdf.store.adds"
let c_merges = T.counter "rdf.store.merges"
let c_probes = T.counter "rdf.store.probes"
let c_tail_scanned = T.counter "rdf.store.tail_scanned"

(* Point-in-time census of the most recently merged store, sampled at
   the merge boundary (the only place the columnar shape changes).
   Gauges, not counters: "triples held" is a reading, not a sum — with
   several live stores the gauge tracks the last one merged, which in a
   serving daemon is the hot session's. *)
let g_triples = M.gauge "rdf.store.triples"
let g_terms = M.gauge "rdf.store.terms"
let g_runs = M.gauge "rdf.store.run_merges"

type triple = Term.t * Term.t * Term.t

type t = {
  dict : Term_dict.t;
  mutable s_col : int array;  (* triple index -> subject id *)
  mutable p_col : int array;
  mutable o_col : int array;
  mutable n : int;  (* live triples; insertion order = index order *)
  (* Sorted runs over triple indices [0, base_n): the merged base. *)
  mutable base_spo : int array;
  mutable base_pos : int array;
  mutable base_osp : int array;
  mutable base_n : int;
  (* CSR posting offsets into each run, rebuilt at merge: run indices
     with first key [id] live at [off.(id), off.(id+1)).  Sized to the
     dictionary at merge time — ids interned later exist only in the
     tail, so an out-of-range id simply has an empty base range. *)
  mutable spo_off : int array;
  mutable pos_off : int array;
  mutable osp_off : int array;
  (* Tail dedup: an open-addressing set of the triple indices in
     [base_n, n), hashed on their ids; [-1] marks a free slot.  The
     length is a power of two, at least twice the tail. *)
  mutable tail_slots : int array;
  mutable merges : int;
  mutable moved : int;  (* run entries written by merges, all time *)
}

(* Probes scan the tail linearly, so a probe merges first once the tail
   is longer than this; a write merges at [max probe_tail_limit base_n]. *)
let probe_tail_limit = 1024

(* Enough for a tail of [probe_tail_limit] at half load, so a store
   below the write bound never regrows its tail set. *)
let initial_slots = 2 * probe_tail_limit

let create () =
  { dict = Term_dict.create ();
    s_col = Array.make 64 0;
    p_col = Array.make 64 0;
    o_col = Array.make 64 0;
    n = 0;
    base_spo = [||];
    base_pos = [||];
    base_osp = [||];
    base_n = 0;
    spo_off = [| 0 |];
    pos_off = [| 0 |];
    osp_off = [| 0 |];
    tail_slots = Array.make initial_slots (-1);
    merges = 0;
    moved = 0 }

let size t = t.n

(* ----- key orders -----

   A key order is the triple of columns it compares, first key first:
   (s, p, o) for SPO, (p, o, s) for POS, (o, s, p) for OSP.  Sorting and
   merging take the columns as arguments and compare ints inline, so no
   comparison closure is called per element. *)

let[@inline] before (c1 : int array) (c2 : int array) (c3 : int array) i j =
  let a = Array.unsafe_get c1 i and b = Array.unsafe_get c1 j in
  a < b
  || a = b
     &&
     let a = Array.unsafe_get c2 i and b = Array.unsafe_get c2 j in
     a < b || (a = b && Array.unsafe_get c3 i < Array.unsafe_get c3 j)

(* Merge the sorted slices [a.(i0 .. i1-1)] and [b.(j0 .. j1-1)] into
   [dst], from [dst.(k0)] on. *)
let merge_into c1 c2 c3 (a : int array) i0 i1 (b : int array) j0 j1
    (dst : int array) k0 =
  let i = ref i0 and j = ref j0 and k = ref k0 in
  while !i < i1 && !j < j1 do
    let x = Array.unsafe_get a !i and y = Array.unsafe_get b !j in
    if before c1 c2 c3 y x then begin
      Array.unsafe_set dst !k y;
      incr j
    end
    else begin
      Array.unsafe_set dst !k x;
      incr i
    end;
    incr k
  done;
  Array.blit a !i dst !k (i1 - !i);
  Array.blit b !j dst (!k + i1 - !i) (j1 - !j)

(* Sort an array of triple indices in the key order (c1, c2, c3):
   insertion sort over blocks of 16, then bottom-up merge passes
   ping-ponging between [a] and one scratch array.  Triples are unique,
   so no two indices compare equal. *)
let sort_indices c1 c2 c3 (a : int array) =
  let n = Array.length a in
  let block = 16 in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + block) in
    for i = !lo + 1 to hi - 1 do
      let v = Array.unsafe_get a i in
      let j = ref (i - 1) in
      while !j >= !lo && before c1 c2 c3 v (Array.unsafe_get a !j) do
        Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
        decr j
      done;
      Array.unsafe_set a (!j + 1) v
    done;
    lo := hi
  done;
  let src = ref a and dst = ref (Array.make n 0) in
  let width = ref block in
  while !width < n do
    let lo = ref 0 in
    while !lo < n do
      let mid = min n (!lo + !width) in
      let hi = min n (mid + !width) in
      merge_into c1 c2 c3 !src !lo mid !src mid hi !dst !lo;
      lo := hi
    done;
    let s = !src in
    src := !dst;
    dst := s;
    width := 2 * !width
  done;
  !src

(* ----- base maintenance ----- *)

(* CSR offsets over a freshly merged run: [off.(id), off.(id+1)) is the
   slice whose first key is [id].  One pass — the run is sorted. *)
let build_off dict run firstcol =
  let terms = Term_dict.count dict in
  let nb = Array.length run in
  let off = Array.make (terms + 1) 0 in
  let pos = ref 0 in
  for id = 0 to terms - 1 do
    off.(id) <- !pos;
    while !pos < nb && firstcol.(run.(!pos)) = id do
      incr pos
    done
  done;
  off.(terms) <- nb;
  off

let reset_tail_slots t =
  if Array.length t.tail_slots > initial_slots then
    t.tail_slots <- Array.make initial_slots (-1)
  else Array.fill t.tail_slots 0 initial_slots (-1)

let merge_tail t =
  if t.n > t.base_n then begin
    let nt = t.n - t.base_n in
    let run c1 c2 c3 base =
      let tail = Array.init nt (fun i -> t.base_n + i) in
      let tail = sort_indices c1 c2 c3 tail in
      let out = Array.make t.n 0 in
      merge_into c1 c2 c3 base 0 t.base_n tail 0 nt out 0;
      out
    in
    let s = t.s_col and p = t.p_col and o = t.o_col in
    t.base_spo <- run s p o t.base_spo;
    t.base_pos <- run p o s t.base_pos;
    t.base_osp <- run o s p t.base_osp;
    t.base_n <- t.n;
    t.spo_off <- build_off t.dict t.base_spo s;
    t.pos_off <- build_off t.dict t.base_pos p;
    t.osp_off <- build_off t.dict t.base_osp o;
    reset_tail_slots t;
    t.merges <- t.merges + 1;
    t.moved <- t.moved + t.n;
    T.incr c_merges;
    M.set g_triples t.n;
    M.set g_terms (Term_dict.count t.dict);
    M.set g_runs t.merges
  end

(* Before a probe: keep the tail short enough to scan. *)
let settle t = if t.n - t.base_n > probe_tail_limit then merge_tail t

let compact t =
  merge_tail t;
  let trim col = if Array.length col > max t.n 1 then Array.sub col 0 (max t.n 1) else col in
  t.s_col <- trim t.s_col;
  t.p_col <- trim t.p_col;
  t.o_col <- trim t.o_col;
  Term_dict.compact t.dict

(* ----- range search -----

   The first bound key never needs a binary search: the CSR offsets give
   its run slice in O(1).  At most one two-key refinement search runs
   inside that slice, using sentinels for the trailing wildcard: ids are
   always >= 0 and < max_int, so (-1) is below every id and max_int
   above. *)

(* Slice of [off]'s run with first key [id]; ids interned after the last
   merge are not covered and live only in the tail. *)
let posting off id =
  if id + 1 < Array.length off then (Array.unsafe_get off id, Array.unsafe_get off (id + 1))
  else (0, 0)

let cmp2 a1 a2 b1 b2 =
  let c = Int.compare a1 b1 in
  if c <> 0 then c else Int.compare a2 b2

(* [refine t base cols (lo0,hi0) k2 k3]: the subrange of [lo0,hi0) whose
   second/third key columns equal/bracket (k2,k3).  [cols = (c2, c3)],
   the columns in this run's key order after the first. *)
let refine base (c2, c3) (lo0, hi0) k2_lo k3_lo k2_hi k3_hi =
  let bound k2 k3 strict =
    let lo = ref lo0 and hi = ref hi0 in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let i = Array.unsafe_get base mid in
      let c = cmp2 (Array.unsafe_get c2 i) (Array.unsafe_get c3 i) k2 k3 in
      if c < 0 || (c = 0 && strict) then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  (bound k2_lo k3_lo false, bound k2_hi k3_hi true)

(* The probe plan for a (possibly wildcard) id pattern: which base run
   answers it, its [lo, hi) slice, and whether every index in the slice
   matches.  Every bound combination is a prefix of one run, so the
   prefix slice never needs a residual filter — but for (?, p, o) the
   object posting is usually orders of magnitude smaller than the
   predicate's, and scanning it with a one-column check beats two binary
   searches inside the predicate slice.  When that wins, the plan is
   inexact (third component [false]) and the caller filters per index. *)
let plan t s p o =
  if s >= 0 then
    if p >= 0 then
      if o >= 0 then
        ( t.base_spo,
          refine t.base_spo (t.p_col, t.o_col) (posting t.spo_off s) p o p o,
          true )
      else
        ( t.base_spo,
          refine t.base_spo (t.p_col, t.o_col) (posting t.spo_off s) p (-1) p
            max_int,
          true )
    else if o >= 0 then
      ( t.base_osp,
        refine t.base_osp (t.s_col, t.p_col) (posting t.osp_off o) s (-1) s
          max_int,
        true )
    else (t.base_spo, posting t.spo_off s, true)
  else if p >= 0 then
    if o >= 0 then begin
      let olo, ohi = posting t.osp_off o in
      let plo, phi = posting t.pos_off p in
      if ohi - olo <= 64 && ohi - olo <= phi - plo then
        (t.base_osp, (olo, ohi), false)
      else
        ( t.base_pos,
          refine t.base_pos (t.o_col, t.s_col) (plo, phi) o (-1) o max_int,
          true )
    end
    else (t.base_pos, posting t.pos_off p, true)
  else if o >= 0 then (t.base_osp, posting t.osp_off o, true)
  else (t.base_spo, (0, Array.length t.base_spo), true)

let tail_matches t s p o f =
  for i = t.base_n to t.n - 1 do
    if
      (s < 0 || t.s_col.(i) = s)
      && (p < 0 || t.p_col.(i) = p)
      && (o < 0 || t.o_col.(i) = o)
    then f i
  done;
  T.add c_tail_scanned (t.n - t.base_n)

(* ----- membership / insert ----- *)

(* Slot of (s, p, o) in a power-of-two table: a multiplicative mix of
   the three ids, finished with a shift so the high bits reach the
   mask. *)
let[@inline] tail_hash s p o mask =
  let h = (((s * 0x2545F491) + p) * 0x9E3779B1) + o in
  let h = h * 0x1B873593 in
  (h lxor (h lsr 29)) land mask

(* The tail slot holding (s, p, o), or the free slot that would hold
   it. *)
let tail_slot t s p o =
  let slots = t.tail_slots in
  let mask = Array.length slots - 1 in
  let j = ref (tail_hash s p o mask) in
  let found = ref false in
  while not !found do
    let i = Array.unsafe_get slots !j in
    if
      i < 0
      || Array.unsafe_get t.s_col i = s
         && Array.unsafe_get t.p_col i = p
         && Array.unsafe_get t.o_col i = o
    then found := true
    else j := (!j + 1) land mask
  done;
  !j

let tail_insert t i =
  let j = tail_slot t t.s_col.(i) t.p_col.(i) t.o_col.(i) in
  t.tail_slots.(j) <- i

(* Keep the tail set at most half full: double it and re-insert the
   tail. *)
let grow_tail_slots t =
  if 2 * (t.n - t.base_n + 1) > Array.length t.tail_slots then begin
    t.tail_slots <- Array.make (2 * Array.length t.tail_slots) (-1);
    for i = t.base_n to t.n - 1 do
      tail_insert t i
    done
  end

let mem_ids t s p o =
  t.tail_slots.(tail_slot t s p o) >= 0
  ||
  let lo, hi =
    refine t.base_spo (t.p_col, t.o_col) (posting t.spo_off s) p o p o
  in
  hi > lo

let add t ((st, pt, ot) : triple) =
  let s = Term_dict.intern t.dict st in
  let p = Term_dict.intern t.dict pt in
  let o = Term_dict.intern t.dict ot in
  if not (mem_ids t s p o) then begin
    if t.n >= Array.length t.s_col then begin
      let grow col =
        let bigger = Array.make (2 * Array.length col) 0 in
        Array.blit col 0 bigger 0 t.n;
        bigger
      in
      t.s_col <- grow t.s_col;
      t.p_col <- grow t.p_col;
      t.o_col <- grow t.o_col
    end;
    grow_tail_slots t;
    let i = t.n in
    t.s_col.(i) <- s;
    t.p_col.(i) <- p;
    t.o_col.(i) <- o;
    t.n <- i + 1;
    tail_insert t i;
    T.incr c_adds;
    if t.n - t.base_n >= max probe_tail_limit t.base_n then merge_tail t
  end

let mem t ((st, pt, ot) : triple) =
  match
    ( Term_dict.id_opt t.dict st,
      Term_dict.id_opt t.dict pt,
      Term_dict.id_opt t.dict ot )
  with
  | Some s, Some p, Some o -> mem_ids t s p o
  | _ -> false

(* ----- decode ----- *)

(* Hot decode: every index fed here is < t.n and every column id came
   out of [intern], so the checks would never fire. *)
let triple_at t i =
  ( Term_dict.unsafe_term t.dict (Array.unsafe_get t.s_col i),
    Term_dict.unsafe_term t.dict (Array.unsafe_get t.p_col i),
    Term_dict.unsafe_term t.dict (Array.unsafe_get t.o_col i) )

let iter t f =
  for i = 0 to t.n - 1 do
    f (triple_at t i)
  done

(* ----- id level ----- *)

let term_count t = Term_dict.count t.dict

let term_of_id t id = Term_dict.term t.dict id

let check_index t i =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Triple_store: triple index %d (size %d)" i t.n)

let subject_id t i = check_index t i; Array.unsafe_get t.s_col i
let predicate_id t i = check_index t i; Array.unsafe_get t.p_col i
let object_id t i = check_index t i; Array.unsafe_get t.o_col i

let triples t = List.init t.n (triple_at t)

(* ----- pattern lookup ----- *)

type pattern = Term.t option * Term.t option * Term.t option

(* Resolve a bound term to its id; a term the dictionary has never seen
   matches nothing, which short-circuits the whole probe. *)
let resolve t = function
  | None -> Some (-1)
  | Some term -> Term_dict.id_opt t.dict term

(* Index of an isolated bit (a power of two below 2^32): de Bruijn
   multiplication, branch-free. *)
let debruijn_table =
  let t = Array.make 32 0 in
  Array.iteri
    (fun i b -> t.(b) <- i)
    (Array.init 32 (fun i -> ((1 lsl i) * 0x077CB531) lsr 27 land 31));
  t

let bit_index low = debruijn_table.((low * 0x077CB531) lsr 27 land 31)

(* Ascending in-place sort of [a.(0 .. k-1)] specialized to ints:
   insertion sort for the small slices selective probes produce, stdlib
   sort above that. *)
let sort_ints a k =
  if k <= 32 then
    for i = 1 to k - 1 do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  else begin
    let sub = Array.sub a 0 k in
    Array.sort Int.compare sub;
    Array.blit sub 0 a 0 k
  end

let find t ((ps, pp, po) : pattern) =
  T.incr c_probes;
  settle t;
  match resolve t ps, resolve t pp, resolve t po with
  | Some s, Some p, Some o ->
    if s < 0 && p < 0 && o < 0 then triples t
    else begin
      let base, (lo, hi), exact = plan t s p o in
      let k = hi - lo in
      if exact && k > 64 && k * 8 >= t.base_n then begin
        (* Very dense range (e.g. one predicate out of a handful): a
           backward scan of the columns yields insertion order for free
           — no sort, no rev, and the tail is just the top indices. *)
        let acc = ref [] in
        for i = t.n - 1 downto 0 do
          if
            (s < 0 || Array.unsafe_get t.s_col i = s)
            && (p < 0 || Array.unsafe_get t.p_col i = p)
            && (o < 0 || Array.unsafe_get t.o_col i = o)
          then acc := triple_at t i :: !acc
        done;
        !acc
      end
      else if exact && k > 64 then begin
        (* Dense range: restoring insertion order by comparison sort is
           O(k log k) with a fat constant; instead mark the hit indices
           in a bitmap and walk only the marked word span descending —
           O(k + span/32), no comparisons at all. *)
        let words = (t.n + 31) lsr 5 in
        let bm = Array.make words 0 in
        let lo_w = ref (words - 1) and hi_w = ref 0 in
        let mark i =
          let w = i lsr 5 in
          Array.unsafe_set bm w
            (Array.unsafe_get bm w lor (1 lsl (i land 31)));
          if w < !lo_w then lo_w := w;
          if w > !hi_w then hi_w := w
        in
        for j = lo to hi - 1 do
          mark (Array.unsafe_get base j)
        done;
        tail_matches t s p o mark;
        (* Build front-to-back without a final rev: walk words high to
           low, extract each word's bits ascending (lowest-set-bit, work
           proportional to hits) into a scratch, cons in reverse. *)
        let acc = ref [] and tmp = Array.make 32 0 in
        for w = !hi_w downto !lo_w do
          let bits = ref (Array.unsafe_get bm w) in
          let c = ref 0 in
          while !bits <> 0 do
            let low = !bits land - !bits in
            bits := !bits lxor low;
            tmp.(!c) <- (w lsl 5) lor bit_index low;
            incr c
          done;
          for j = !c - 1 downto 0 do
            acc := triple_at t tmp.(j) :: !acc
          done
        done;
        !acc
      end
      else begin
        (* Selective probe: base hits come back in key order; insertion
           order is index order, so sort the slice ascending.  Tail
           indices are all larger than any base index and scanned in
           order, so appending keeps the global insertion order.  An
           inexact plan (always a small slice) filters here. *)
        let hits = Array.make (max k 1) 0 in
        let m = ref 0 in
        for j = lo to hi - 1 do
          let i = Array.unsafe_get base j in
          if
            exact
            || (s < 0 || Array.unsafe_get t.s_col i = s)
               && (p < 0 || Array.unsafe_get t.p_col i = p)
               && (o < 0 || Array.unsafe_get t.o_col i = o)
          then begin
            hits.(!m) <- i;
            incr m
          end
        done;
        sort_ints hits !m;
        let tl = ref [] in
        tail_matches t s p o (fun i -> tl := i :: !tl);
        let acc = ref (List.rev_map (triple_at t) !tl) in
        for j = !m - 1 downto 0 do
          acc := triple_at t hits.(j) :: !acc
        done;
        !acc
      end
    end
  | _ -> []

let count t ((ps, pp, po) : pattern) =
  T.incr c_probes;
  settle t;
  match resolve t ps, resolve t pp, resolve t po with
  | Some s, Some p, Some o ->
    if s < 0 && p < 0 && o < 0 then t.n
    else begin
      let base, (lo, hi), exact = plan t s p o in
      let k = ref 0 in
      if exact then k := hi - lo
      else
        for j = lo to hi - 1 do
          let i = Array.unsafe_get base j in
          if
            (s < 0 || Array.unsafe_get t.s_col i = s)
            && (p < 0 || Array.unsafe_get t.p_col i = p)
            && (o < 0 || Array.unsafe_get t.o_col i = o)
          then incr k
        done;
      tail_matches t s p o (fun _ -> incr k);
      !k
    end
  | _ -> 0

(* ----- stats ----- *)

type store_stats = {
  st_triples : int;
  st_terms : int;  (** distinct terms in the dictionary *)
  st_base : int;  (** triples covered by the merged sorted runs *)
  st_tail : int;  (** recent inserts pending a run merge *)
  st_merges : int;  (** run merges performed over the store's life *)
  st_moved : int;  (** run entries those merges wrote, per key order *)
}

let stats t =
  { st_triples = t.n;
    st_terms = Term_dict.count t.dict;
    st_base = t.base_n;
    st_tail = t.n - t.base_n;
    st_merges = t.merges;
    st_moved = t.moved }

(* ----- basic graph patterns ----- *)

type bgp_term =
  | Const of Term.t
  | Var of string

open Weblab_relalg

let term_value term = Value.Str (Term.to_ntriples term)

let unbound = Value.Str ""

(* All variables of a BGP, first-occurrence order. *)
let bgp_variables bgp =
  let vars_of (a, b, c) =
    List.filter_map (function Var v -> Some v | Const _ -> None) [ a; b; c ]
  in
  List.fold_left
    (fun acc tp ->
      List.fold_left
        (fun acc v -> if List.mem v acc then acc else acc @ [ v ])
        acc (vars_of tp))
    [] bgp

(* Evaluate a conjunctive pattern left to right, returning raw variable
   environments.  Each step substitutes the current row's bindings into
   the pattern and probes the store through [find]. *)
let solutions t bgp : (string * Term.t) list list =
  List.fold_left
    (fun rows (a, b, c) ->
      List.concat_map
        (fun (env : (string * Term.t) list) ->
          let resolve = function
            | Const term -> Some term
            | Var v -> List.assoc_opt v env
          in
          let pat = (resolve a, resolve b, resolve c) in
          find t pat
          |> List.filter_map (fun (s, p, o) ->
                 (* Bind still-free variables; a variable used twice in one
                    pattern must match the same term. *)
                 let bind env (bt, term) =
                   match env, bt with
                   | None, _ -> None
                   | Some env, Const _ -> Some env
                   | Some env, Var v -> (
                     match List.assoc_opt v env with
                     | Some existing ->
                       if Term.equal existing term then Some env else None
                     | None -> Some ((v, term) :: env))
                 in
                 List.fold_left bind (Some env) [ (a, s); (b, p); (c, o) ]))
        rows)
    [ [] ] bgp

let table_of_solutions vars sols =
  let table = Table.create vars in
  List.iter
    (fun env ->
      Table.add_row table
        (Array.of_list
           (List.map
              (fun v ->
                match List.assoc_opt v env with
                | Some term -> term_value term
                | None -> unbound)
              vars)))
    sols;
  Table.distinct table

let query t bgp = table_of_solutions (bgp_variables bgp) (solutions t bgp)
