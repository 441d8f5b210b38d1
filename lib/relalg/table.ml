type t = {
  cols : string array;
  mutable rows : Value.t array list;  (* reversed insertion order *)
  mutable count : int;
}

let check_distinct cols =
  let sorted = List.sort String.compare cols in
  let rec dup = function
    | a :: (b :: _ as rest) -> String.equal a b || dup rest
    | [ _ ] | [] -> false
  in
  if dup sorted then invalid_arg "Table.create: duplicate column names"

let create cols =
  check_distinct cols;
  { cols = Array.of_list cols; rows = []; count = 0 }

let columns t = Array.to_list t.cols

let cardinality t = t.count

let rows t = List.rev t.rows

let add_row t row =
  if Array.length row <> Array.length t.cols then
    invalid_arg "Table.add_row: row width does not match the schema";
  t.rows <- row :: t.rows;
  t.count <- t.count + 1

let of_rows cols rs =
  let t = create cols in
  List.iter (add_row t) rs;
  t

let col_index t name =
  let rec find i =
    if i >= Array.length t.cols then raise Not_found
    else if String.equal t.cols.(i) name then i
    else find (i + 1)
  in
  find 0

let get t row col = row.(col_index t col)

let row_key row = String.concat "\x00" (Array.to_list (Array.map Value.to_string row))

let distinct t =
  let seen = Hashtbl.create 64 in
  let out = create (columns t) in
  List.iter
    (fun row ->
      let key = row_key row in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        add_row out row
      end)
    (rows t);
  out

let project t names =
  let idx = List.map (col_index t) names in
  let out = create names in
  List.iter (fun row -> add_row out (Array.of_list (List.map (fun i -> row.(i)) idx))) (rows t);
  distinct out

let rename t mapping =
  let cols =
    Array.to_list t.cols
    |> List.map (fun c -> match List.assoc_opt c mapping with Some c' -> c' | None -> c)
  in
  check_distinct cols;
  { t with cols = Array.of_list cols }

let select t pred =
  let out = create (columns t) in
  List.iter (fun row -> if pred t row then add_row out row) (rows t);
  out

(* Join column bookkeeping: the output schema is a's columns followed by
   b's non-shared columns, and rows of [a] drive the outer order — the
   row {e sequence} of the textbook nested-loop join, not just its set
   (property-tested against the nested-loop oracle in the tests). *)
let join_plan a b =
  let cols_a = columns a and cols_b = columns b in
  let shared = List.filter (fun c -> List.mem c cols_a) cols_b in
  let b_only = List.filter (fun c -> not (List.mem c shared)) cols_b in
  let ia = Array.of_list (List.map (col_index a) shared) in
  let ib = Array.of_list (List.map (col_index b) shared) in
  let b_only_idx = Array.of_list (List.map (col_index b) b_only) in
  (create (cols_a @ b_only), ia, ib, b_only_idx)

(* Join keys compare the rendered values, matching the string-based row
   identity used by [distinct] and [equal]. *)
let join_key idxs row =
  let buf = Buffer.create 32 in
  Array.iter
    (fun i ->
      Buffer.add_string buf (Value.to_string row.(i));
      Buffer.add_char buf '\x00')
    idxs;
  Buffer.contents buf

let emit_match out row_a row_b b_only_idx =
  add_row out (Array.append row_a (Array.map (fun i -> row_b.(i)) b_only_idx))

module T = Weblab_obs.Telemetry

let c_joins = T.counter "join.hash.count"
let c_build = T.counter "join.hash.build_rows"
let c_probe = T.counter "join.hash.probe_rows"
let c_out = T.counter "join.hash.out_rows"

(* Equi-join on the shared columns: build a hash table over [b] once, then
   probe per row of [a] — O(|a| + |b| + output). *)
let hash_join a b =
  T.incr c_joins;
  T.add c_build (cardinality b);
  T.add c_probe (cardinality a);
  let out, ia, ib, b_only_idx = join_plan a b in
  let index = Hashtbl.create (max 16 (cardinality b)) in
  List.iter (fun row -> Hashtbl.add index (join_key ib row) row) (rows b);
  List.iter
    (fun row_a ->
      match Hashtbl.find_all index (join_key ia row_a) with
      | [] -> ()
      | matches ->
        (* find_all returns most-recently-added first; restore order *)
        List.iter
          (fun row_b -> emit_match out row_a row_b b_only_idx)
          (List.rev matches))
    (rows a);
  T.add c_out (cardinality out);
  out

let natural_join = hash_join

let union a b =
  if List.sort String.compare (columns a) <> List.sort String.compare (columns b)
  then invalid_arg "Table.union: schemas differ";
  let out = create (columns a) in
  List.iter (add_row out) (rows a);
  (* Reorder b's columns to a's order. *)
  let idx = List.map (col_index b) (columns a) in
  List.iter
    (fun row -> add_row out (Array.of_list (List.map (fun i -> row.(i)) idx)))
    (rows b);
  distinct out

let sorted_row_keys t =
  rows t |> List.map row_key |> List.sort String.compare

let equal a b =
  List.sort String.compare (columns a) = List.sort String.compare (columns b)
  &&
  (* Align column order before comparing rows. *)
  let b' = project b (columns a) in
  let a' = distinct a in
  sorted_row_keys a' = sorted_row_keys b'

let pp ppf t =
  let cols = columns t in
  let rs = rows t |> List.map (fun r -> Array.to_list (Array.map Value.to_string r)) in
  let widths =
    List.mapi
      (fun i c ->
        List.fold_left (fun w row -> max w (String.length (List.nth row i)))
          (String.length c) rs)
      cols
  in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let line cells = String.concat " | " (List.map2 pad cells widths) in
  Fmt.pf ppf "%s@." (line cols);
  Fmt.pf ppf "%s@." (String.concat "-+-" (List.map (fun w -> String.make w '-') widths));
  List.iter (fun row -> Fmt.pf ppf "%s@." (line row)) rs

let to_string t = Fmt.str "%a" pp t
