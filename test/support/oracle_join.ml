open Weblab_relalg

(* Join keys compare the rendered values, as the hash join does. *)
let key idxs row =
  String.concat "\x00"
    (List.map (fun i -> Value.to_string row.(i)) idxs)

let index_of cols c =
  let rec go i = function
    | [] -> raise Not_found
    | x :: rest -> if String.equal x c then i else go (i + 1) rest
  in
  go 0 cols

let nested_loop_join a b =
  let cols_a = Table.columns a and cols_b = Table.columns b in
  let shared = List.filter (fun c -> List.mem c cols_a) cols_b in
  let b_only = List.filter (fun c -> not (List.mem c shared)) cols_b in
  let ia = List.map (index_of cols_a) shared in
  let ib = List.map (index_of cols_b) shared in
  let b_only_idx = Array.of_list (List.map (index_of cols_b) b_only) in
  let out = Table.create (cols_a @ b_only) in
  List.iter
    (fun row_a ->
      let ka = key ia row_a in
      List.iter
        (fun row_b ->
          if String.equal ka (key ib row_b) then
            Table.add_row out
              (Array.append row_a (Array.map (fun i -> row_b.(i)) b_only_idx)))
        (Table.rows b))
    (Table.rows a);
  out
