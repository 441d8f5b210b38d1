(* Materialized reachability over provenance graphs — the "efficient
   provenance storage and querying methods" future work of §8 (citing
   Anand et al. and Chapman et al.).

   Provenance queries are dominated by reachability ("does resource b
   transitively depend on a?", "all upstream sources of b"), which BFS
   answers in O(edges) per query.  This index materializes the transitive
   closure once, as compact bitsets over a dense node numbering; queries
   then cost O(1) (a bit test) or O(nodes/word) (closure enumeration).
   Building costs O(nodes × edges / word) — worth it as soon as more than
   a handful of queries hit the same frozen graph, which is exactly the
   Request Manager's read-mostly situation (Fig. 5). *)

type t = {
  ids : (string, int) Hashtbl.t;
  names : string array;
  (* closure.(i) = bitset of node ids reachable from i via depends-on *)
  closure : Bytes.t array;
}

let bit_get bs i = Char.code (Bytes.get bs (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set bs i =
  Bytes.set bs (i lsr 3)
    (Char.chr (Char.code (Bytes.get bs (i lsr 3)) lor (1 lsl (i land 7))))

let bytes_or ~into src =
  for k = 0 to Bytes.length into - 1 do
    Bytes.set into k
      (Char.chr (Char.code (Bytes.get into k) lor Char.code (Bytes.get src k)))
  done

let build (g : Prov_graph.t) : t =
  (* Dense numbering of every node occurring in a link or a label. *)
  let ids = Hashtbl.create 64 in
  let add_node u = if not (Hashtbl.mem ids u) then Hashtbl.add ids u (Hashtbl.length ids) in
  List.iter (fun (u, _) -> add_node u) (Prov_graph.labeled_resources g);
  List.iter
    (fun l ->
      add_node l.Prov_graph.from_uri;
      add_node l.Prov_graph.to_uri)
    (Prov_graph.links g);
  let n = Hashtbl.length ids in
  let names = Array.make n "" in
  Hashtbl.iter (fun u i -> names.(i) <- u) ids;
  let nbytes = (n + 7) / 8 in
  let closure = Array.init n (fun _ -> Bytes.make nbytes '\000') in
  let succs = Array.make n [] in
  List.iter
    (fun l ->
      let a = Hashtbl.find ids l.Prov_graph.from_uri in
      let b = Hashtbl.find ids l.Prov_graph.to_uri in
      succs.(a) <- b :: succs.(a))
    (Prov_graph.links g);
  (* Provenance graphs are DAGs (Definition 3): process in reverse
     topological order so each closure is computed once. *)
  let visited = Array.make n 0 in
  (* 0 = white, 1 = done *)
  let rec visit i =
    if visited.(i) = 0 then begin
      visited.(i) <- 1;
      List.iter
        (fun j ->
          visit j;
          bit_set closure.(i) j;
          bytes_or ~into:closure.(i) closure.(j))
        succs.(i)
    end
  in
  for i = 0 to n - 1 do
    visit i
  done;
  { ids; names; closure }

let id t u = Hashtbl.find_opt t.ids u

(* [depends_on t b a]: does b transitively depend on a? *)
let depends_on t ~on:a b =
  match id t b, id t a with
  | Some ib, Some ia -> bit_get t.closure.(ib) ia
  | _ -> false

(* Every resource [u] transitively depends on, sorted. *)
let ancestors t u =
  match id t u with
  | None -> []
  | Some i ->
    let acc = ref [] in
    for j = Array.length t.names - 1 downto 0 do
      if bit_get t.closure.(i) j then acc := t.names.(j) :: !acc
    done;
    List.sort String.compare !acc

(* Every resource that transitively depends on [u], sorted. *)
let descendants t u =
  match id t u with
  | None -> []
  | Some j ->
    let acc = ref [] in
    for i = Array.length t.names - 1 downto 0 do
      if bit_get t.closure.(i) j then acc := t.names.(i) :: !acc
    done;
    List.sort String.compare !acc

let size t = Array.length t.names
