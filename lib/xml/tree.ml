(* Structure-of-arrays node arena.

   A node is an index into a set of parallel int arrays: parent /
   first-child / last-child / next-sibling links, a packed meta word
   (bit 0: element-vs-text, the remaining bits: creation timestamp), a
   dictionary id for the label (element name, or text content for text
   nodes), the uri-time, and the head of an attribute chain.  Attributes
   live in their own parallel arrays (name id, value id, next) whose
   entries are immutable once written — [set_attr] appends fresh entries
   and repoints the node's head, so an in-place edit writes one word,
   which is all the rollback log records.

   All strings go through the per-document {!Intern} dictionary, so a
   node costs a handful of machine words instead of a boxed record, a
   children vector and an assoc list.  Child ids are strictly increasing
   along every sibling chain (appends only ever add a last child), which
   keeps the rollback story of the old representation: the nodes with
   id >= n form a suffix of the arena and a suffix of every surviving
   node's child chain. *)

type node = int

type timestamp = int

let no_node = -1

(* A URI [fresh_uri] handed out that no node carries yet. *)
let claimed = -2

(* The four columns an in-place edit writes. *)
type column = Label | Attr_head | Meta | Uri_time

(* A logged cell as one int: the node id above two column bits.  The
   hash folds the node's low bits into the column's, so cells of one
   column still spread over every bucket. *)
let cell n = function
  | Label -> n lsl 2
  | Attr_head -> (n lsl 2) lor 1
  | Meta -> (n lsl 2) lor 2
  | Uri_time -> (n lsl 2) lor 3

module Cells = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k lxor (k lsr 2)
end)

type checkpoint = {
  ck_size : int;
  ck_attrs_n : int;
  ck_log : (node * column * int) list;  (* the undo log when taken *)
  ck_uri_log : (int * node) list;  (* the URI log when taken *)
  mutable ck_first : (int Cells.t * (node * column * int) list) option;
      (* each cell's oldest logged value, and the log it was built from *)
}

type t = {
  dict : Intern.t;
  mutable n : int;  (* live node count; arrays are valid on [0, n) *)
  mutable parent : int array;
  mutable first_child : int array;
  mutable last_child : int array;
  mutable next_sibling : int array;
  mutable meta : int array;  (* bit 0: is_element; bits 1..: created *)
  mutable label : int array;  (* dict id: element name / text content *)
  mutable uri_time_a : int array;
  mutable attr_head : int array;  (* first attr entry, [no_node] if none *)
  (* Attribute entries: append-only and immutable once written. *)
  mutable attr_name : int array;  (* dict id *)
  mutable attr_value : int array;  (* dict id *)
  mutable attr_next : int array;
  mutable attrs_n : int;
  mutable root : node;
  mutable generation : int;
      (* bumped on every restore; lets size-stamped caches detect a
         rollback followed by appends back to the same size *)
  mutable log : (node * column * int) list;
      (* newest first: every write to a node older than the innermost
         open checkpoint; empty when none is open *)
  mutable open_cks : checkpoint list;  (* innermost first *)
  (* Resource identity (Definition 1's injective [uri]): a URI's dict
     id -> the node that first carried it, [claimed], or [no_node] (also
     every id past the end). *)
  mutable uri_node : int array;
  mutable uri_log : (int * node) list;
      (* newest first: every binding's previous value, while a
         checkpoint is open *)
  uri_lock : Mutex.t;
      (* guards the two fields above: [fresh_uri] may race with itself
         (a second domain's execution minting in the same document) *)
}

let initial_cap = 16

let create () =
  { dict = Intern.create ();
    n = 0;
    parent = Array.make initial_cap no_node;
    first_child = Array.make initial_cap no_node;
    last_child = Array.make initial_cap no_node;
    next_sibling = Array.make initial_cap no_node;
    meta = Array.make initial_cap 0;
    label = Array.make initial_cap 0;
    uri_time_a = Array.make initial_cap 0;
    attr_head = Array.make initial_cap no_node;
    attr_name = Array.make initial_cap 0;
    attr_value = Array.make initial_cap 0;
    attr_next = Array.make initial_cap no_node;
    attrs_n = 0;
    root = no_node;
    generation = 0;
    log = [];
    open_cks = [];
    uri_node = [||];
    uri_log = [];
    uri_lock = Mutex.create () }

let size t = t.n

let generation t = t.generation

let check t n =
  if n < 0 || n >= t.n then
    invalid_arg
      (Printf.sprintf "Tree: invalid node id %d (arena size %d)" n t.n)

let has_root t = t.root <> no_node

let root t =
  if t.root = no_node then invalid_arg "Tree.root: empty document";
  t.root

(* ----- Growth ----- *)

let grow_int_array a cap used =
  let a' = Array.make cap 0 in
  Array.blit a 0 a' 0 used;
  a'

let ensure_node_capacity t =
  if t.n >= Array.length t.parent then begin
    let cap = 2 * Array.length t.parent in
    t.parent <- grow_int_array t.parent cap t.n;
    t.first_child <- grow_int_array t.first_child cap t.n;
    t.last_child <- grow_int_array t.last_child cap t.n;
    t.next_sibling <- grow_int_array t.next_sibling cap t.n;
    t.meta <- grow_int_array t.meta cap t.n;
    t.label <- grow_int_array t.label cap t.n;
    t.uri_time_a <- grow_int_array t.uri_time_a cap t.n;
    t.attr_head <- grow_int_array t.attr_head cap t.n
  end

let ensure_attr_capacity t =
  if t.attrs_n >= Array.length t.attr_name then begin
    let cap = 2 * Array.length t.attr_name in
    t.attr_name <- grow_int_array t.attr_name cap t.attrs_n;
    t.attr_value <- grow_int_array t.attr_value cap t.attrs_n;
    t.attr_next <- grow_int_array t.attr_next cap t.attrs_n
  end

let column t = function
  | Label -> t.label
  | Attr_head -> t.attr_head
  | Meta -> t.meta
  | Uri_time -> t.uri_time_a

(* Every in-place write goes through here.  Only a node older than the
   innermost open checkpoint needs an undo: the common case is one match. *)
let write t col n v =
  let a = column t col in
  (match t.open_cks with
   | ck :: _ when n < ck.ck_size -> t.log <- (n, col, a.(n)) :: t.log
   | _ -> ());
  a.(n) <- v

(* Trim the doubling slack: every array shrinks to its live prefix.
   Purely a capacity operation — node ids, links and the rollback
   contract are untouched, and later appends simply grow again.  Worth
   calling once on a document that just finished bulk ingest and will
   now live for a long time (frozen documents keep ~2x their footprint
   otherwise). *)
let compact t =
  let cap = max t.n 1 and acap = max t.attrs_n 1 in
  let shrink a cap used = if Array.length a > cap then grow_int_array a cap used else a in
  t.parent <- shrink t.parent cap t.n;
  t.first_child <- shrink t.first_child cap t.n;
  t.last_child <- shrink t.last_child cap t.n;
  t.next_sibling <- shrink t.next_sibling cap t.n;
  t.meta <- shrink t.meta cap t.n;
  t.label <- shrink t.label cap t.n;
  t.uri_time_a <- shrink t.uri_time_a cap t.n;
  t.attr_head <- shrink t.attr_head cap t.n;
  t.attr_name <- shrink t.attr_name acap t.attrs_n;
  t.attr_value <- shrink t.attr_value acap t.attrs_n;
  t.attr_next <- shrink t.attr_next acap t.attrs_n;
  (let ucap = min (Array.length t.uri_node) (Intern.count t.dict) in
   t.uri_node <- shrink t.uri_node ucap ucap);
  Intern.compact t.dict

(* ----- Construction ----- *)

let alloc t ~is_elem ~label parent =
  let id = t.n in
  ensure_node_capacity t;
  t.n <- id + 1;
  t.parent.(id) <- parent;
  t.first_child.(id) <- no_node;
  t.last_child.(id) <- no_node;
  t.next_sibling.(id) <- no_node;
  t.meta.(id) <- (if is_elem then 1 else 0);
  t.label.(id) <- label;
  t.uri_time_a.(id) <- 0;
  t.attr_head.(id) <- no_node;
  if parent <> no_node then begin
    let l = t.last_child.(parent) in
    if l = no_node then t.first_child.(parent) <- id
    else t.next_sibling.(l) <- id;
    t.last_child.(parent) <- id
  end;
  id

(* Append one immutable attribute entry; returns its index. *)
let alloc_attr t ~name_id ~value_id ~next =
  let e = t.attrs_n in
  ensure_attr_capacity t;
  t.attrs_n <- e + 1;
  t.attr_name.(e) <- name_id;
  t.attr_value.(e) <- value_id;
  t.attr_next.(e) <- next;
  e

(* Install an attribute list (document order) as a fresh chain; returns
   the dict id of the value [attr n "id"] now reads, or [no_node]. *)
let set_attr_list t n l =
  let uri = ref no_node in
  let rec chain = function
    | [] -> no_node
    | (k, v) :: rest ->
      let next = chain rest in
      let value_id = Intern.intern t.dict v in
      if String.equal k "id" then uri := value_id;
      alloc_attr t ~name_id:(Intern.intern t.dict k) ~value_id ~next
  in
  write t Attr_head n (chain l);
  !uri

let uri_binding t k =
  if k < Array.length t.uri_node then t.uri_node.(k) else no_node

(* Bind the URI with dict id [k], logging the previous binding while a
   checkpoint is open.  Callers hold [uri_lock]. *)
let bind_uri t k b =
  if t.open_cks <> [] then t.uri_log <- (k, uri_binding t k) :: t.uri_log;
  let len = Array.length t.uri_node in
  if k >= len then begin
    let a = Array.make (max (k + 1) (2 * len)) no_node in
    Array.blit t.uri_node 0 a 0 len;
    t.uri_node <- a
  end;
  t.uri_node.(k) <- b

(* [n] now carries the URI [k]: it wins it unless an earlier node holds it. *)
let carry_uri t n k = if uri_binding t k < 0 then bind_uri t k n

let new_element ?(attrs = []) t ~parent name =
  if parent = no_node && t.root <> no_node then
    invalid_arg "Tree.new_element: document already has a root";
  let id = alloc t ~is_elem:true ~label:(Intern.intern t.dict name) parent in
  if attrs <> [] then begin
    let k = set_attr_list t id attrs in
    if k <> no_node then Mutex.protect t.uri_lock (fun () -> carry_uri t id k)
  end;
  if parent = no_node then t.root <- id;
  id

let new_text t ~parent s =
  if parent = no_node then invalid_arg "Tree.new_text: text node cannot be root";
  alloc t ~is_elem:false ~label:(Intern.intern t.dict s) parent

(* ----- Accessors ----- *)

let is_element t n =
  check t n;
  t.meta.(n) land 1 = 1

let is_text t n =
  check t n;
  t.meta.(n) land 1 = 0

let name t n =
  check t n;
  if t.meta.(n) land 1 = 1 then Intern.get t.dict t.label.(n) else ""

let text t n =
  check t n;
  if t.meta.(n) land 1 = 0 then Intern.get t.dict t.label.(n) else ""

let parent t n =
  check t n;
  t.parent.(n)

let first_child t n =
  check t n;
  t.first_child.(n)

let last_child t n =
  check t n;
  t.last_child.(n)

let next_sibling t n =
  check t n;
  t.next_sibling.(n)

let iter_children t n f =
  check t n;
  let c = ref t.first_child.(n) in
  while !c <> no_node do
    let next = t.next_sibling.(!c) in
    f !c;
    c := next
  done

let children t n =
  check t n;
  let rec collect c acc =
    if c = no_node then List.rev acc
    else collect t.next_sibling.(c) (c :: acc)
  in
  collect t.first_child.(n) []

let attr_chain t head =
  let rec collect e acc =
    if e = no_node then List.rev acc
    else
      collect t.attr_next.(e)
        ((Intern.get t.dict t.attr_name.(e), Intern.get t.dict t.attr_value.(e))
        :: acc)
  in
  collect head []

let attrs t n =
  check t n;
  attr_chain t t.attr_head.(n)

let attr t n k =
  check t n;
  let rec find e =
    if e = no_node then None
    else if String.equal (Intern.get t.dict t.attr_name.(e)) k then
      Some (Intern.get t.dict t.attr_value.(e))
    else find t.attr_next.(e)
  in
  find t.attr_head.(n)

let for_all_attrs t n f =
  check t n;
  let rec go e =
    e = no_node
    || f (Intern.get t.dict t.attr_name.(e)) (Intern.get t.dict t.attr_value.(e))
       && go t.attr_next.(e)
  in
  go t.attr_head.(n)

(* [(k, v) :: List.remove_assoc k attrs], chain-style: a fresh key is a
   prepended entry; an existing key rebuilds the whole chain so no live
   entry is ever mutated (the checkpoint immutability invariant). *)
let set_attr t n k v =
  check t n;
  let old = if String.equal k "id" then attr t n k else None in
  let exists =
    let rec probe e =
      e <> no_node
      && (String.equal (Intern.get t.dict t.attr_name.(e)) k
         || probe t.attr_next.(e))
    in
    probe t.attr_head.(n)
  in
  if not exists then
    write t Attr_head n
      (alloc_attr t ~name_id:(Intern.intern t.dict k)
         ~value_id:(Intern.intern t.dict v) ~next:t.attr_head.(n))
  else
    ignore (set_attr_list t n ((k, v) :: List.remove_assoc k (attrs t n)));
  if String.equal k "id" then
    Mutex.protect t.uri_lock (fun () ->
        (* A first carrier that drops its URI hands it to the next
           carrier in arena order, if any. *)
        Option.iter
          (fun o ->
            let ko = Intern.intern t.dict o in
            let rec next i =
              if i = t.n || attr t i k = Some o then i else next (i + 1)
            in
            if (not (String.equal o v)) && uri_binding t ko = n then
              bind_uri t ko (let c = next 0 in if c = t.n then no_node else c))
          old;
        carry_uri t n (Intern.intern t.dict v))

let set_text t n s =
  check t n;
  if t.meta.(n) land 1 = 1 then invalid_arg "Tree.set_text: not a text node";
  write t Label n (Intern.intern t.dict s)

let uri t n = attr t n "id"

let set_uri t n u = set_attr t n "id" u

let uri_time t n =
  check t n;
  t.uri_time_a.(n)

let set_uri_time t n ts =
  check t n;
  write t Uri_time n ts

let is_resource t n = is_element t n && uri t n <> None

(* Probe and claim under the table's lock, so two racing allocations
   never observe the same unused candidate. *)
let fresh_uri t =
  Mutex.protect t.uri_lock (fun () ->
      let rec next k =
        let u = Printf.sprintf "r%d" k in
        match Intern.find t.dict u with
        | Some id when uri_binding t id <> no_node -> next (k + 1)
        | Some _ | None -> u
      in
      let u = next t.n in
      bind_uri t (Intern.intern t.dict u) claimed;
      u)

let created t n =
  check t n;
  t.meta.(n) asr 1

let set_created t n ts =
  check t n;
  write t Meta n ((ts lsl 1) lor (t.meta.(n) land 1))

let service_label t n =
  match attr t n "s", attr t n "t" with
  | Some s, Some ts -> (try Some (s, int_of_string ts) with Failure _ -> None)
  | _ -> None

let set_service_label t n s ts =
  set_attr t n "s" s;
  set_attr t n "t" (string_of_int ts)

(* ----- Traversal -----

   Preorder without a stack: follow first-child links down, next-sibling
   links across, and climb parents until a sibling appears or the subtree
   root is reached again.  Depth-proof by construction — million-node
   chains walk in constant space. *)

let iter_subtree t n f =
  check t n;
  let cur = ref n and running = ref true in
  while !running do
    f !cur;
    if t.first_child.(!cur) <> no_node then cur := t.first_child.(!cur)
    else begin
      let m = ref !cur and next = ref no_node in
      while !next = no_node && !m <> n do
        if t.next_sibling.(!m) <> no_node then next := t.next_sibling.(!m)
        else m := t.parent.(!m)
      done;
      if !next = no_node then running := false else cur := !next
    end
  done

let fold_subtree t n ~init ~f =
  let acc = ref init in
  iter_subtree t n (fun m -> acc := f !acc m);
  !acc

let descendant_or_self t n =
  List.rev (fold_subtree t n ~init:[] ~f:(fun acc m -> m :: acc))

let descendants t n =
  match descendant_or_self t n with
  | [] -> []
  | self :: rest ->
    assert (self = n);
    rest

let ancestors t n =
  let rec loop m acc =
    let p = parent t m in
    if p = no_node then List.rev acc else loop p (p :: acc)
  in
  loop n []

let is_ancestor t ~ancestor n =
  let rec loop m =
    let p = parent t m in
    if p = no_node then false else p = ancestor || loop p
  in
  loop n

let string_value t n =
  let buf = Buffer.create 64 in
  iter_subtree t n (fun m ->
      if t.meta.(m) land 1 = 0 then
        Buffer.add_string buf (Intern.get t.dict t.label.(m)));
  Buffer.contents buf

let resources t =
  if t.root = no_node then []
  else List.filter (fun n -> is_resource t n) (descendant_or_self t t.root)

let find_resource t u =
  match Intern.find t.dict u with
  | Some k when uri_binding t k >= 0 -> Some t.uri_node.(k)
  | Some _ | None -> None

(* ----- Rollback -----

   Rollback exists solely so the orchestrator can undo a *failed* call.
   A call changes committed state only by the logged writes above and by
   appends.  Node ids are allocated in increasing order and linked as
   last children in that same order, so the appended nodes form a suffix
   of the arena and of every surviving node's sibling chain — dropping
   them is a count reset plus one chain cut per parent they hang from. *)

let checkpoint t =
  let ck =
    { ck_size = t.n; ck_attrs_n = t.attrs_n; ck_log = t.log;
      ck_uri_log = t.uri_log; ck_first = None }
  in
  t.open_cks <- ck :: t.open_cks;
  ck

(* Close [ck] and every checkpoint opened after it.  Once none is left
   open, nothing can be undone any more and the log is dropped. *)
let commit t ck =
  let rec pop = function
    | c :: rest -> if c == ck then rest else pop rest
    | [] -> invalid_arg "Tree: checkpoint is not open"
  in
  t.open_cks <- pop t.open_cks;
  if t.open_cks = [] then begin
    t.log <- [];
    t.uri_log <- []
  end

(* Fold over the entries logged since [ck], newest first. *)
let fold_log t ck f init =
  if not (List.memq ck t.open_cks) then
    invalid_arg "Tree: checkpoint is not open";
  let rec go acc l =
    if l == ck.ck_log then acc
    else match l with e :: rest -> go (f acc e) rest | [] -> acc
  in
  go init t.log

let changed_since t ck =
  fold_log t ck
    (fun acc (n, _, _) -> if n < ck.ck_size then n :: acc else acc)
    []
  |> List.sort_uniq Int.compare

(* What [col] of [n] held when [ck] was taken: the oldest value logged
   since, else the current one.  The dictionary and the attribute
   entries are append-only. *)
let value_at t ck n col =
  if n < 0 || n >= ck.ck_size then
    invalid_arg
      (Printf.sprintf "Tree: invalid checkpoint node %d (size %d)" n
         ck.ck_size);
  let first =
    match ck.ck_first with
    | Some (h, log) when log == t.log && List.memq ck t.open_cks -> h
    | _ ->
      let h = Cells.create (fold_log t ck (fun k _ -> k + 1) 0) in
      fold_log t ck (fun () (m, c, old) -> Cells.replace h (cell m c) old) ();
      ck.ck_first <- Some (h, t.log);
      h
  in
  match Cells.find_opt first (cell n col) with
  | Some old -> old
  | None -> (column t col).(n)

(* Element names never change in place: [set_text] refuses elements. *)
let text_at t ck n =
  let l = value_at t ck n Label in
  if t.meta.(n) land 1 = 0 then Intern.get t.dict l else ""

let attrs_at t ck n = attr_chain t (value_at t ck n Attr_head)

let restore t ck =
  (* Newest first: each cell ends at its oldest logged value.  Nodes past
     the checkpoint's size are dropped next. *)
  fold_log t ck (fun () (n, col, old) -> (column t col).(n) <- old) ();
  t.log <- ck.ck_log;
  let rec undo = function
    | (k, b) :: rest as l when l != ck.ck_uri_log ->
      t.uri_node.(k) <- b;
      undo rest
    | _ -> t.uri_log <- ck.ck_uri_log
  in
  Mutex.protect t.uri_lock (fun () -> undo t.uri_log);
  commit t ck;
  let size = ck.ck_size in
  (* Child ids increase along a chain: keep each one's prefix below
     [size]. *)
  let rec survivor k =
    let s = t.next_sibling.(k) in
    if s = no_node || s >= size then k else survivor s
  in
  for c = size to t.n - 1 do
    let p = t.parent.(c) in
    if p <> no_node && p < size && t.last_child.(p) >= size then begin
      let f = t.first_child.(p) in
      let l = if f >= size then no_node else survivor f in
      if l = no_node then t.first_child.(p) <- no_node
      else t.next_sibling.(l) <- no_node;
      t.last_child.(p) <- l
    end
  done;
  t.n <- size;
  if t.root >= size then t.root <- no_node;
  t.attrs_n <- ck.ck_attrs_n;
  (* Even at unchanged size the nodes may have been mutated in place. *)
  t.generation <- t.generation + 1

let sorted_attrs l = List.sort compare l

let equal_subtree t1 n1 t2 n2 =
  (* Explicit pair stack: structural equality over arbitrarily deep
     chains without touching the call stack. *)
  let stack = ref [ (n1, n2) ] and ok = ref true in
  while !ok && !stack <> [] do
    match !stack with
    | [] -> ()
    | (a, b) :: rest ->
      stack := rest;
      (match is_element t1 a, is_element t2 b with
      | false, false -> ok := String.equal (text t1 a) (text t2 b)
      | true, true ->
        if
          String.equal (name t1 a) (name t2 b)
          && sorted_attrs (attrs t1 a) = sorted_attrs (attrs t2 b)
        then begin
          let ka = children t1 a and kb = children t2 b in
          if List.compare_lengths ka kb <> 0 then ok := false
          else stack := List.rev_append (List.combine ka kb) !stack
        end
        else ok := false
      | false, true | true, false -> ok := false)
  done;
  !ok
