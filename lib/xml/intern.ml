(* Append-only string interning for the SoA arena.

   One table per document maps strings (element names, attribute names,
   attribute values, text content) to dense integer ids.  Ids are
   allocated in first-seen order and never reused or dropped, so they
   survive rollbacks for free: dropping arena nodes leaves stale entries
   in the dictionary, which is only wasted space, never a wrong answer.

   The read path ([get]) touches only the id -> string array — no hash
   table — so concurrent readers in other domains (parallel inference
   workers resolving labels) race at most with an array-double by the
   single writer, which OCaml array semantics make safe: they observe
   either the old or the new backing store, both of which carry every id
   they can legally hold. *)

(* Specialised to strings: [String.equal] instead of polymorphic compare
   on every probe. *)
module H = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type t = {
  mutable strings : string array;  (* id -> string, first [n] slots live *)
  mutable n : int;
  table : int H.t;  (* string -> id, writer-side only *)
}

let create () = { strings = Array.make 64 ""; n = 0; table = H.create 64 }

let count t = t.n

let find t s = H.find_opt t.table s

let intern t s =
  match H.find_opt t.table s with
  | Some id -> id
  | None ->
    let id = t.n in
    if id >= Array.length t.strings then begin
      let bigger = Array.make (2 * Array.length t.strings) "" in
      Array.blit t.strings 0 bigger 0 t.n;
      t.strings <- bigger
    end;
    t.strings.(id) <- s;
    t.n <- id + 1;
    H.add t.table s id;
    id

(* Shrink the id array to its live prefix.  Writer-side only, like
   [intern]: concurrent readers observe either backing store, both of
   which hold every id they can legally ask for. *)
let compact t =
  if Array.length t.strings > max t.n 1 then
    t.strings <- Array.sub t.strings 0 (max t.n 1)

let get t id =
  if id < 0 || id >= t.n then
    invalid_arg (Printf.sprintf "Intern.get: invalid id %d (count %d)" id t.n);
  t.strings.(id)
