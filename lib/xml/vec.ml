(* Growable arrays used by the node arena.  OCaml 5.1 has no Stdlib.Dynarray
   yet, so we carry a tiny implementation.  The [dummy] element fills unused
   slots and is never observable through the public API. *)

type 'a t = {
  mutable data : 'a array;
  mutable size : int;
  dummy : 'a;
}

let create ~dummy = { data = Array.make 16 dummy; size = 0; dummy }

let length v = v.size

(* Boundary failures carry the offending index and the live size: a
   long-lived server turns these into session-level error replies, and a
   bare constructor name is undiagnosable by then. *)
let out_of_bounds op i size =
  invalid_arg (Printf.sprintf "Vec.%s: index %d out of bounds (size %d)" op i size)

let get v i =
  if i < 0 || i >= v.size then out_of_bounds "get" i v.size;
  v.data.(i)

let set v i x =
  if i < 0 || i >= v.size then out_of_bounds "set" i v.size;
  v.data.(i) <- x

let ensure_capacity v n =
  if n > Array.length v.data then begin
    let cap = max n (2 * Array.length v.data) in
    let data = Array.make cap v.dummy in
    Array.blit v.data 0 data 0 v.size;
    v.data <- data
  end

let push v x =
  ensure_capacity v (v.size + 1);
  v.data.(v.size) <- x;
  v.size <- v.size + 1

(* Merge the array [xs], sorted by [less], into [v], sorted the same
   way, in one backward pass: every element moves at most once, so a
   batch costs O(size + |xs|) however many of its elements land
   mid-vector, and O(|xs|) when they all sort after the current tail. *)
let merge v xs ~less =
  let k = Array.length xs in
  if k > 0 then begin
    ensure_capacity v (v.size + k);
    let i = ref (v.size - 1) and j = ref (k - 1) in
    let w = ref (v.size + k - 1) in
    while !j >= 0 do
      if !i >= 0 && less xs.(!j) v.data.(!i) then begin
        v.data.(!w) <- v.data.(!i);
        decr i
      end
      else begin
        v.data.(!w) <- xs.(!j);
        decr j
      end;
      decr w
    done;
    v.size <- v.size + k
  end

let to_list v =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (v.data.(i) :: acc) in
  loop (v.size - 1) []
