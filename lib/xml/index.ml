(* Per-document evaluation index: nodes-by-label, pre/post-order
   intervals and subtree sizes.  Built in one DFS over a finished
   document and extensible in place when the arena grows by appends; see
   index.mli for the contract. *)

module T = Weblab_obs.Telemetry

let c_builds = T.counter "index.builds"
let c_extend_ok = T.counter "index.extend.ok"
let c_extend_fail = T.counter "index.extend.fail"

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
  by_label : (string, Tree.node Vec.t) Hashtbl.t;
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

let build tree =
  T.incr c_builds;
  let n = Tree.size tree in
  let pre = Array.make (max n 1) (-1) and post = Array.make (max n 1) (-1) in
  let sizes = Array.make (max n 1) 0 in
  let last = Array.make (max n 1) (-1) in
  let t =
    { tree; stamp = n; gen = Tree.generation tree; pre; post; sizes; last;
      by_label = Hashtbl.create 64;
      exhausted = false }
  in
  let clock = ref 0 in
  let rec visit node =
    pre.(node) <- !clock * key_gap;
    incr clock;
    (* DFS visits in document order, so plain pushes keep the postings
       sorted by pre key. *)
    if Tree.is_element tree node then
      Vec.push (posting t.by_label (Tree.name tree node)) node;
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

(* The nodes one extension adds to each label posting, gathered while
   keying and merged afterwards: one pass per touched posting, however
   many of its nodes land mid-document. *)
let batch_add tbl key node =
  match Hashtbl.find_opt tbl key with
  | Some l -> l := node :: !l
  | None -> Hashtbl.add tbl key (ref [ node ])

(* Sort a batch by pre key and merge it into its posting. *)
let merge_into t v nodes =
  if nodes <> [] then begin
    let xs = Array.of_list nodes in
    Array.sort (fun a b -> Int.compare t.pre.(a) t.pre.(b)) xs;
    Vec.merge v xs ~less:(fun a b -> t.pre.(a) < t.pre.(b))
  end

let extend t doc =
  if t.exhausted || not (t.tree == doc) || t.gen <> Tree.generation doc then
  begin
    T.incr c_extend_fail;
    false
  end
  else begin
    let n = Tree.size doc in
    ensure_arrays t n;
    let batch = Hashtbl.create 8 in
    let rec key_tail node =
      node >= n
      || key_node t node
         && begin
           if Tree.is_element t.tree node then
             batch_add batch (Tree.name t.tree node) node;
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
      (* A promotion only adds attributes ([id], [s], [t]), which no
         posting covers: the tail is all there is to index. *)
      Hashtbl.iter (fun l nodes -> merge_into t (posting t.by_label l) !nodes)
        batch;
      t.stamp <- n;
      T.incr c_extend_ok;
      true
    end
  end

let nodes_with_label t l =
  match Hashtbl.find_opt t.by_label l with
  | Some v -> Vec.to_list v
  | None -> []

let label_count t l =
  match Hashtbl.find_opt t.by_label l with
  | Some v -> Vec.length v
  | None -> 0

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
