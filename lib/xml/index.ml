(* Per-document evaluation index: nodes-by-label, nodes-by-attribute for
   the provenance attributes, and pre/post-order intervals.  Built in one
   DFS and — new — extensible in place when the arena grows by appends;
   see index.mli for the contract. *)

module T = Weblab_obs.Telemetry

let c_builds = T.counter "index.builds"
let c_cache_hit = T.counter "index.cache.hit"
let c_cache_miss = T.counter "index.cache.miss"
let c_extend_ok = T.counter "index.extend.ok"
let c_extend_fail = T.counter "index.extend.fail"
let c_ingests = T.counter "index.ingests"

let indexed_attrs = [ "id"; "s"; "t" ]

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
  elements : Tree.node Vec.t;  (* all elements, document order *)
  by_label : (string, Tree.node Vec.t) Hashtbl.t;
  by_attr : (string * string, Tree.node Vec.t) Hashtbl.t;
  some_attr : (string, Tree.node Vec.t) Hashtbl.t;
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

let posting_insert t v node = Vec.insert v (posting_pos t v node) node

let add_element_postings t node =
  posting_insert t t.elements node;
  posting_insert t (posting t.by_label (Tree.name t.tree node)) node;
  List.iter
    (fun (a, v) ->
      if attr_indexed a then begin
        posting_insert t (posting t.by_attr (a, v)) node;
        posting_insert t (posting t.some_attr a) node
      end)
    (Tree.attrs t.tree node)

let build tree =
  T.incr c_builds;
  let n = Tree.size tree in
  let pre = Array.make (max n 1) (-1) and post = Array.make (max n 1) (-1) in
  let sizes = Array.make (max n 1) 0 in
  let t =
    { tree; stamp = n; gen = Tree.generation tree; pre; post; sizes;
      elements = Vec.create ~dummy:Tree.no_node;
      by_label = Hashtbl.create 64;
      by_attr = Hashtbl.create 64;
      some_attr = Hashtbl.create 8;
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
          if attr_indexed a then begin
            Vec.push (posting t.by_attr (a, v)) node;
            Vec.push (posting t.some_attr a) node
          end)
        (Tree.attrs tree node)
    end;
    let sz = ref 1 in
    List.iter
      (fun child ->
        visit child;
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
   before children (new_element, copy_subtree), so when node [n] is
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
    t.sizes <- grow t.sizes 0
  end

let alloc_keys t node =
  let p = Tree.parent t.tree node in
  if p = Tree.no_node || t.pre.(p) < 0 then false
  else begin
    let prev =
      (* Walk the sibling chain directly: no child-list allocation. *)
      let rec find prev c =
        if c = node then prev else find c (Tree.next_sibling t.tree c)
      in
      find Tree.no_node (Tree.first_child t.tree p)
    in
    let lo = if prev = Tree.no_node then t.pre.(p) else t.post.(prev) in
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
      true
    end
  end

let extend_node t node =
  if not (alloc_keys t node) then false
  else begin
    t.sizes.(node) <- 1;
    let rec bump p =
      if p <> Tree.no_node then begin
        t.sizes.(p) <- t.sizes.(p) + 1;
        bump (Tree.parent t.tree p)
      end
    in
    bump (Tree.parent t.tree node);
    if Tree.is_element t.tree node then add_element_postings t node;
    true
  end

(* Promoted nodes gained attributes after they were first indexed (URI
   promotion adds an "id" to a committed node); refresh their attribute
   postings.  Append semantics forbid removal or modification, so only
   insertions are needed. *)
let refresh_promoted t nodes =
  List.iter
    (fun node ->
      if node >= 0 && node < Array.length t.pre && t.pre.(node) >= 0
         && Tree.is_element t.tree node
      then
        List.iter
          (fun (a, v) ->
            if attr_indexed a then begin
              let va = posting t.by_attr (a, v) in
              if not (posting_mem t va node) then posting_insert t va node;
              let sa = posting t.some_attr a in
              if not (posting_mem t sa node) then posting_insert t sa node
            end)
          (Tree.attrs t.tree node))
    nodes

let extend t doc ~promoted =
  if t.exhausted || not (t.tree == doc) || t.gen <> Tree.generation doc
     || Tree.size doc < t.stamp
  then begin
    T.incr c_extend_fail;
    false
  end
  else begin
    let n = Tree.size doc in
    ensure_arrays t n;
    let ok = ref true in
    (try
       for node = t.stamp to n - 1 do
         if not (extend_node t node) then begin
           ok := false;
           raise Exit
         end
       done
     with Exit -> ());
    if not !ok then begin
      (* A partial extension leaves the postings inconsistent; the frozen
         stamp keeps [valid_for] false forever and the flag refuses any
         further extension.  The caller rebuilds. *)
      t.exhausted <- true;
      T.incr c_extend_fail;
      false
    end
    else begin
      t.stamp <- n;
      refresh_promoted t promoted;
      T.incr c_extend_ok;
      true
    end
  end

(* A tiny bounded LRU keyed by [Tree.id]; the stamp detects appends and
   the generation detects rollbacks (a truncate followed by fresh appends
   can revisit an old size).  Eight entries cover every concurrent
   workload in the engine (one long-lived arena per execution) without
   pinning an unbounded set of dead documents.

   Recency is a monotone tick: every hit restamps the entry (O(1) under
   the lock), and eviction scans the at-most-eight entries for the
   smallest tick.  The previous assoc-list version re-sorted the whole
   list on every insert ([List.length] + [List.filter] under the mutex);
   the table keeps the critical section to a find or a replace.

   The cache is shared across the whole process, and inference workers in
   other domains go through it whenever a caller did not pass an explicit
   index — so every access goes through [cache_mutex].  [build] itself
   runs outside the lock: it only reads the one tree the caller owns, and
   a racing duplicate build is harmless (last writer wins).

   Cached indexes are never extended in place: extension mutates the
   postings, and a racing domain could be reading them.  In-place
   extension is reserved for privately owned indexes (the Fused
   backend holds its own); the shared cache always rebuilds. *)
let max_cached = 8

type cache_entry = { idx : t; mutable tick : int }

let cache : (int, cache_entry) Hashtbl.t = Hashtbl.create max_cached

let cache_tick = ref 0

let cache_mutex = Mutex.create ()

let cache_find tree =
  Mutex.protect cache_mutex (fun () ->
      match Hashtbl.find_opt cache (Tree.id tree) with
      | Some e ->
        incr cache_tick;
        e.tick <- !cache_tick;
        Some e.idx
      | None -> None)

let cache_put tree idx =
  Mutex.protect cache_mutex (fun () ->
      let key = Tree.id tree in
      if not (Hashtbl.mem cache key) && Hashtbl.length cache >= max_cached
      then begin
        (* Evict the least recently used entry: a bounded scan. *)
        let victim =
          Hashtbl.fold
            (fun k e acc ->
              match acc with
              | Some (_, t) when t <= e.tick -> acc
              | _ -> Some (k, e.tick))
            cache None
        in
        match victim with
        | Some (k, _) -> Hashtbl.remove cache k
        | None -> ()
      end;
      incr cache_tick;
      Hashtbl.replace cache key { idx; tick = !cache_tick })

let cached_count () =
  Mutex.protect cache_mutex (fun () -> Hashtbl.length cache)

let for_tree tree =
  match cache_find tree with
  | Some idx when valid_for idx tree ->
    T.incr c_cache_hit;
    idx
  | Some _ | None ->
    T.incr c_cache_miss;
    let idx = build tree in
    cache_put tree idx;
    idx

(* ----- Event-driven ingest -----

   Builds the index *during* parsing instead of traversing the finished
   tree a second time.  The clock replicates [build]'s DFS walk exactly:
   an open event takes the next pre key, a text node takes a pre and a
   post key back to back, a close event takes the next post key — events
   arrive in document order, so plain pushes keep the postings sorted and
   the result is indistinguishable from [build] over the finished tree. *)

type ingest = {
  ing : t;
  mutable clock : int;
  mutable visited : int;  (* nodes keyed so far — the coverage counter *)
  mutable open_stack : (Tree.node * int) list;  (* node, [visited] at open *)
}

let ingest_start tree =
  T.incr c_ingests;
  { ing =
      { tree; stamp = 0; gen = Tree.generation tree;
        pre = Array.make 16 (-1); post = Array.make 16 (-1);
        sizes = Array.make 16 0;
        elements = Vec.create ~dummy:Tree.no_node;
        by_label = Hashtbl.create 64;
        by_attr = Hashtbl.create 64;
        some_attr = Hashtbl.create 8;
        exhausted = false };
    clock = 0; visited = 0; open_stack = [] }

let ingest_pre_key it node =
  ensure_arrays it.ing (node + 1);
  it.ing.pre.(node) <- it.clock * key_gap;
  it.clock <- it.clock + 1;
  it.visited <- it.visited + 1

let ingest_post_key it node =
  it.ing.post.(node) <- it.clock * key_gap;
  it.clock <- it.clock + 1

let ingest_open_element it node =
  it.open_stack <- (node, it.visited) :: it.open_stack;
  ingest_pre_key it node;
  let t = it.ing in
  Vec.push t.elements node;
  Vec.push (posting t.by_label (Tree.name t.tree node)) node;
  List.iter
    (fun (a, v) ->
      if attr_indexed a then begin
        Vec.push (posting t.by_attr (a, v)) node;
        Vec.push (posting t.some_attr a) node
      end)
    (Tree.attrs t.tree node)

let ingest_text it node =
  ingest_pre_key it node;
  it.ing.sizes.(node) <- 1;
  ingest_post_key it node

let ingest_close_element it node =
  (match it.open_stack with
  | (n, v0) :: rest when n = node ->
    it.ing.sizes.(node) <- it.visited - v0;
    it.open_stack <- rest
  | _ -> invalid_arg "Index.ingest_close_element: unbalanced events");
  ingest_post_key it node

let ingest_finish it =
  if it.open_stack <> [] then
    invalid_arg "Index.ingest_finish: unclosed elements";
  let t = it.ing in
  if it.visited <> Tree.size t.tree then
    invalid_arg "Index.ingest_finish: events did not cover the arena";
  t.stamp <- it.visited;
  (* Seed the shared cache: the first [for_tree] over a freshly ingested
     document is a hit, not a rebuild. *)
  cache_put t.tree t;
  t

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

let nodes_with_some_attr t a = posting_list t.some_attr a

let resource t u =
  match Hashtbl.find_opt t.by_attr ("id", u) with
  | Some v when Vec.length v > 0 -> Some (Vec.get v 0)
  | Some _ | None -> None

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
