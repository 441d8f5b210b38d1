(* Append-only term dictionary: the RDF twin of the arena's string
   Intern table (lib/xml/intern.ml).

   Every distinct term is boxed exactly once and referenced by a dense
   integer id from the columnar triple arrays.  Ids are allocated in
   first-seen order and never reused, so a store's id space only grows —
   which is what lets the write-ahead log replay into the same ids
   without a remapping pass.

   The read path ([term]) touches only the id -> term array, so
   concurrent readers (a daemon connection decoding query results while
   another session's writer interns) race at most with an array-double,
   which OCaml array semantics make safe: either backing store carries
   every id a reader can legally hold. *)

type t = {
  mutable terms : Term.t array;  (* id -> term, first [n] slots live *)
  mutable hashes : int array;  (* id -> Term.hash of its term *)
  mutable n : int;
  (* term -> id, writer-side only: open addressing over ids, [-1] for a
     free slot.  The length is a power of two, at least twice [n], so a
     probe ends at a free slot.  Growing rehashes from [hashes], never
     from the terms' strings. *)
  mutable slots : int array;
}

let dummy = Term.Iri ""

let create () =
  { terms = Array.make 64 dummy; hashes = Array.make 64 0; n = 0;
    slots = Array.make 128 (-1) }

let count t = t.n

(* The slot holding [term] (hash [h]), or the free slot that would. *)
let slot t term h =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let j = ref (h land mask) in
  let found = ref false in
  while not !found do
    let id = Array.unsafe_get slots !j in
    if
      id < 0
      || Array.unsafe_get t.hashes id = h
         && Term.equal (Array.unsafe_get t.terms id) term
    then found := true
    else j := (!j + 1) land mask
  done;
  !j

let grow_slots t =
  let slots = Array.make (2 * Array.length t.slots) (-1) in
  let mask = Array.length slots - 1 in
  for id = 0 to t.n - 1 do
    let j = ref (t.hashes.(id) land mask) in
    while slots.(!j) >= 0 do
      j := (!j + 1) land mask
    done;
    slots.(!j) <- id
  done;
  t.slots <- slots

let intern t term =
  let h = Term.hash term in
  let j = slot t term h in
  let found = t.slots.(j) in
  if found >= 0 then found
  else begin
    let id = t.n in
    if id >= Array.length t.terms then begin
      let grow a fill =
        let bigger = Array.make (2 * Array.length a) fill in
        Array.blit a 0 bigger 0 t.n;
        bigger
      in
      t.hashes <- grow t.hashes 0;
      t.terms <- grow t.terms dummy
    end;
    t.hashes.(id) <- h;
    t.terms.(id) <- term;
    t.n <- id + 1;
    if 2 * t.n > Array.length t.slots then grow_slots t
    else t.slots.(j) <- id;
    id
  end

let id_opt t term =
  let id = t.slots.(slot t term (Term.hash term)) in
  if id >= 0 then Some id else None

let term t id =
  if id < 0 || id >= t.n then
    invalid_arg (Printf.sprintf "Term_dict.term: invalid id %d (count %d)" id t.n);
  t.terms.(id)

let unsafe_term t id = Array.unsafe_get t.terms id

(* Writer-side, like [intern]: trim the doubling slack. *)
let compact t =
  if Array.length t.terms > max t.n 1 then begin
    t.terms <- Array.sub t.terms 0 (max t.n 1);
    t.hashes <- Array.sub t.hashes 0 (max t.n 1)
  end
