(* Per-document evaluation index: nodes-by-label, nodes-by-attribute for
   the provenance attributes, and pre/post-order intervals.  Built in one
   DFS over a finished document and extensible in place when the arena
   grows by appends; see index.mli for the contract. *)

module T = Weblab_obs.Telemetry

let c_builds = T.counter "index.builds"
let c_extend_ok = T.counter "index.extend.ok"
let c_extend_fail = T.counter "index.extend.fail"

let indexed_attrs = [ "s"; "t" ]

let attr_indexed a = List.mem a indexed_attrs

(* ----- Order keys -----

   Pre/post ranks are not dense: consecutive DFS events are [key_gap]
   apart, so a fragment appended later can be keyed *inside* its parent's
   interval without renumbering anything.  Only the order of keys matters
   to the interval tests; [subtree_size] is maintained separately.

   Appends always add a last child (Tree.new_element), so a new node [n]
   is keyed in the free band between its preceding sibling's post key (or
   the parent's pre key) and the parent's post key.  The node takes a
   bounded slice at the start of the band — [child_room] keys of interior,
   for its own future descendants — and leaves the rest to future
   siblings.  When a band is too narrow to split, the index declares
   itself exhausted and the caller falls back to a full rebuild: the
   rebuilt index starts from fresh uniform gaps, so the rebuild cost is
   amortized over the appends that consumed the band. *)

let key_gap = if Sys.int_size >= 63 then 1 lsl 30 else 1 lsl 10

let child_room = max 16 (key_gap lsr 14)

type t = {
  tree : Tree.t;
  mutable stamp : int;  (* arena prefix [0, stamp) covered *)
  gen : int;  (* arena generation at build time: detects rollbacks *)
  mutable pre : int array;  (* preorder key, -1 for nodes outside the tree *)
  mutable post : int array;
  mutable sizes : int array;  (* descendant-or-self count *)
  mutable last : int array;
      (* post key of the node's last keyed child, -1 if none: where the
         next appended child's band starts *)
  elements : Tree.node Vec.t;  (* all elements, document order *)
  by_label : (string, Tree.node Vec.t) Hashtbl.t;
  by_attr : (string * string, Tree.node Vec.t) Hashtbl.t;
  mutable exhausted : bool;  (* a key band ran out: refuse to extend *)
}

(* Postings are kept sorted by pre key = document order. *)
let posting tbl key =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = Vec.create ~dummy:Tree.no_node in
    Hashtbl.add tbl key v;
    v

(* First position whose pre key is >= [pre.(node)] — the insertion point,
   and the only place [node] can already sit (keys are unique). *)
let posting_pos t v node =
  let key = t.pre.(node) in
  let lo = ref 0 and hi = ref (Vec.length v) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.pre.(Vec.get v mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo

let posting_mem t v node =
  let i = posting_pos t v node in
  i < Vec.length v && Vec.get v i = node

let build tree =
  T.incr c_builds;
  let n = Tree.size tree in
  let pre = Array.make (max n 1) (-1) and post = Array.make (max n 1) (-1) in
  let sizes = Array.make (max n 1) 0 in
  let last = Array.make (max n 1) (-1) in
  let t =
    { tree; stamp = n; gen = Tree.generation tree; pre; post; sizes; last;
      elements = Vec.create ~dummy:Tree.no_node;
      by_label = Hashtbl.create 64;
      by_attr = Hashtbl.create 64;
      exhausted = false }
  in
  let clock = ref 0 in
  let rec visit node =
    pre.(node) <- !clock * key_gap;
    incr clock;
    if Tree.is_element tree node then begin
      (* DFS visits in document order, so plain pushes keep the postings
         sorted by pre key. *)
      Vec.push t.elements node;
      Vec.push (posting t.by_label (Tree.name tree node)) node;
      List.iter
        (fun (a, v) ->
          if attr_indexed a then Vec.push (posting t.by_attr (a, v)) node)
        (Tree.attrs tree node)
    end;
    let sz = ref 1 in
    List.iter
      (fun child ->
        visit child;
        last.(node) <- post.(child);
        sz := !sz + sizes.(child))
      (Tree.children tree node);
    sizes.(node) <- !sz;
    post.(node) <- !clock * key_gap;
    incr clock
  in
  if Tree.has_root tree then visit (Tree.root tree);
  t

let stamp t = t.stamp

let valid_for t doc =
  t.tree == doc && t.stamp = Tree.size doc && t.gen = Tree.generation doc

(* ----- In-place extension -----

   Replays the appended arena tail [stamp, size) in id order.  Appends
   only ever add a last child and fragments are materialized parent
   before children (new_element, Diff.graft), so when node [n] is
   processed its parent and preceding siblings already carry keys. *)

let ensure_arrays t n =
  if n > Array.length t.pre then begin
    let cap = max n (2 * Array.length t.pre) in
    let grow a default =
      let a' = Array.make cap default in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    t.pre <- grow t.pre (-1);
    t.post <- grow t.post (-1);
    t.sizes <- grow t.sizes 0;
    t.last <- grow t.last (-1)
  end

(* Key [node] right after its preceding sibling (or its parent's pre
   key): that sibling's post key is the parent's [last], so keying is
   O(1) however many children the parent already holds. *)
let alloc_keys t node =
  let p = Tree.parent t.tree node in
  if p = Tree.no_node || t.pre.(p) < 0 then false
  else begin
    let lo = if t.last.(p) < 0 then t.pre.(p) else t.last.(p) in
    let hi = t.post.(p) in
    let room = hi - lo in
    let s = min (room / 8) child_room in
    if s < 2 then false
    else begin
      (* Nothing is ever inserted before a last child, so the node sits
         right after [lo]; the interior slice bounds how deep future
         appends can nest below it before a rebuild. *)
      t.pre.(node) <- lo + 1;
      t.post.(node) <- lo + 1 + s;
      t.last.(node) <- -1;
      t.last.(p) <- t.post.(node);
      true
    end
  end

let key_node t node =
  alloc_keys t node
  && begin
    t.sizes.(node) <- 1;
    let rec bump p =
      if p <> Tree.no_node then begin
        t.sizes.(p) <- t.sizes.(p) + 1;
        bump (Tree.parent t.tree p)
      end
    in
    bump (Tree.parent t.tree node);
    true
  end

(* The nodes one extension adds to each posting, gathered while keying
   and merged afterwards: one pass per touched posting, however many of
   its nodes land mid-document. *)
type batch = {
  b_elements : Tree.node list ref;
  b_label : (string, Tree.node list ref) Hashtbl.t;
  b_attr : (string * string, Tree.node list ref) Hashtbl.t;
}

let batch_add tbl key node =
  match Hashtbl.find_opt tbl key with
  | Some l -> l := node :: !l
  | None -> Hashtbl.add tbl key (ref [ node ])

let batch_attrs t b node =
  List.iter
    (fun (a, v) -> if attr_indexed a then batch_add b.b_attr (a, v) node)
    (Tree.attrs t.tree node)

(* Sort a batch by pre key and merge it into its posting. *)
let merge_into t v nodes =
  if nodes <> [] then begin
    let xs = Array.of_list nodes in
    Array.sort (fun a b -> Int.compare t.pre.(a) t.pre.(b)) xs;
    Vec.merge v xs ~less:(fun a b -> t.pre.(a) < t.pre.(b))
  end

let extend t doc ~promoted =
  if t.exhausted || not (t.tree == doc) || t.gen <> Tree.generation doc then
  begin
    T.incr c_extend_fail;
    false
  end
  else begin
    let n = Tree.size doc in
    ensure_arrays t n;
    let b =
      { b_elements = ref []; b_label = Hashtbl.create 8;
        b_attr = Hashtbl.create 16 }
    in
    let rec key_tail node =
      node >= n
      || key_node t node
         && begin
           if Tree.is_element t.tree node then begin
             b.b_elements := node :: !(b.b_elements);
             batch_add b.b_label (Tree.name t.tree node) node;
             batch_attrs t b node
           end;
           key_tail (node + 1)
         end
    in
    if not (key_tail t.stamp) then begin
      (* Keys of part of the tail are written but no posting is touched;
         the frozen stamp keeps [valid_for] false forever and the flag
         refuses any further extension.  The caller rebuilds. *)
      t.exhausted <- true;
      T.incr c_extend_fail;
      false
    end
    else begin
      (* Promoted nodes gained attributes after they were indexed (the
         service label a URI promotion brings); the tail cannot see
         them.  Append semantics forbid removal or modification, so only
         insertions are needed, of the pairs not yet posted. *)
      List.iter
        (fun node ->
          if node < t.stamp && t.pre.(node) >= 0
             && Tree.is_element t.tree node
          then
            List.iter
              (fun (a, v) ->
                if attr_indexed a
                   && not (posting_mem t (posting t.by_attr (a, v)) node)
                then batch_add b.b_attr (a, v) node)
              (Tree.attrs t.tree node))
        promoted;
      merge_into t t.elements !(b.b_elements);
      let merge_all tbl batches =
        Hashtbl.iter (fun key l -> merge_into t (posting tbl key) !l) batches
      in
      merge_all t.by_label b.b_label;
      merge_all t.by_attr b.b_attr;
      t.stamp <- n;
      T.incr c_extend_ok;
      true
    end
  end

let posting_list tbl key =
  match Hashtbl.find_opt tbl key with
  | Some v -> Vec.to_list v
  | None -> []

let nodes_with_label t l = posting_list t.by_label l

let label_count t l =
  match Hashtbl.find_opt t.by_label l with
  | Some v -> Vec.length v
  | None -> 0

let elements t = Vec.to_list t.elements

let nodes_with_attr t a v = posting_list t.by_attr (a, v)

let in_tree t n = n >= 0 && n < Array.length t.pre && t.pre.(n) >= 0

let strictly_below t ~ancestor n =
  in_tree t ancestor && in_tree t n
  && t.pre.(ancestor) < t.pre.(n)
  && t.post.(n) < t.post.(ancestor)

let below_or_self t ~ancestor n =
  in_tree t ancestor && in_tree t n
  && t.pre.(ancestor) <= t.pre.(n)
  && t.post.(n) <= t.post.(ancestor)

let subtree_size t n = if in_tree t n then t.sizes.(n) else 0
