(* Provenance graphs (Definition 3): labeled DAGs connecting each resource
   of the final document to the resources used to generate it.  The two
   tables of Figure 2 — Source (the labeling function λ) and Provenance
   (the edge set E) — are both views of this structure. *)

open Weblab_workflow

type link = {
  from_uri : string;  (* the generated resource (the newer endpoint) *)
  to_uri : string;    (* the resource it was derived from *)
  rule : string;      (* name of the mapping rule that inferred it *)
  inherited : bool;   (* implicit link obtained by structural propagation *)
}

type t = {
  mutable links_rev : link list;
  mutable nlinks : int;
  labels : (string, Trace.call) Hashtbl.t;
  members : (string, string) Hashtbl.t;
      (* synthetic Skolem entity -> member resource uris *)
  dedup : (string, unit) Hashtbl.t;
}

let create () =
  {
    links_rev = [];
    nlinks = 0;
    labels = Hashtbl.create 32;
    members = Hashtbl.create 8;
    dedup = Hashtbl.create 64;
  }

let set_label g uri call = Hashtbl.replace g.labels uri call

let label g uri = Hashtbl.find_opt g.labels uri

(* Ties on time are broken by URI, so the order depends on the label set
   only, never on the table's insertion history. *)
let labeled_resources g =
  Hashtbl.fold (fun uri call acc -> (uri, call) :: acc) g.labels []
  |> List.sort (fun (u, a) (v, b) ->
         let c = compare a.Trace.time b.Trace.time in
         if c <> 0 then c else String.compare u v)

let of_trace trace =
  let g = create () in
  List.iter (fun e -> set_label g e.Trace.uri e.Trace.call) (Trace.entries trace);
  g

let link_key l =
  String.concat "\x00" [ l.from_uri; l.to_uri; l.rule; string_of_bool l.inherited ]

let add_link ?(rule = "") ?(inherited = false) g ~from_uri ~to_uri =
  (* Self-dependencies are meaningless (and Definition 3 requires a DAG). *)
  if not (String.equal from_uri to_uri) then begin
    let l = { from_uri; to_uri; rule; inherited } in
    let k = link_key l in
    if not (Hashtbl.mem g.dedup k) then begin
      Hashtbl.add g.dedup k ();
      g.links_rev <- l :: g.links_rev;
      g.nlinks <- g.nlinks + 1
    end
  end

let add_member g ~entity ~member = Hashtbl.add g.members entity member

let members g entity = Hashtbl.find_all g.members entity

let skolem_entities g =
  Hashtbl.fold (fun e _ acc -> if List.mem e acc then acc else e :: acc) g.members []

let links g = List.rev g.links_rev

let size g = g.nlinks

(* Direct dependencies of a resource: the resources it was derived from. *)
let depends_on g uri =
  links g
  |> List.filter_map (fun l ->
         if String.equal l.from_uri uri then Some l.to_uri else None)
  |> List.sort_uniq String.compare

(* The resources directly derived from [uri]. *)
let used_by g uri =
  links g
  |> List.filter_map (fun l ->
         if String.equal l.to_uri uri then Some l.from_uri else None)
  |> List.sort_uniq String.compare

let has_link ?rule g ~from_uri ~to_uri =
  List.exists
    (fun l ->
      String.equal l.from_uri from_uri
      && String.equal l.to_uri to_uri
      && match rule with None -> true | Some r -> String.equal r l.rule)
    (links g)

(* Edges must point backwards in time: λ(from).time > λ(to).time when both
   endpoints are labeled (initial resources share timestamp 0, which a
   correct inference never links together). *)
let temporally_sound g =
  List.for_all
    (fun l ->
      match label g l.from_uri, label g l.to_uri with
      | Some cf, Some ct -> cf.Trace.time > ct.Trace.time
      | _ -> true)
    (links g)

let is_acyclic g =
  (* Kahn's algorithm over the link relation. *)
  let adj = Hashtbl.create 64 in
  let indeg = Hashtbl.create 64 in
  let touch u =
    if not (Hashtbl.mem indeg u) then Hashtbl.replace indeg u 0
  in
  List.iter
    (fun l ->
      touch l.from_uri;
      touch l.to_uri;
      Hashtbl.add adj l.from_uri l.to_uri;
      Hashtbl.replace indeg l.to_uri (Hashtbl.find indeg l.to_uri + 1))
    (links g);
  let queue = Queue.create () in
  Hashtbl.iter (fun u d -> if d = 0 then Queue.add u queue) indeg;
  let visited = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    incr visited;
    List.iter
      (fun v ->
        let d = Hashtbl.find indeg v - 1 in
        Hashtbl.replace indeg v d;
        if d = 0 then Queue.add v queue)
      (Hashtbl.find_all adj u)
  done;
  !visited = Hashtbl.length indeg

(* The Provenance table of Figure 2: From | To. *)
let provenance_table ?(with_rule = false) g =
  let buf = Buffer.create 256 in
  if with_rule then begin
    Buffer.add_string buf "From | To   | Rule\n";
    Buffer.add_string buf "-----+------+-----\n"
  end
  else begin
    Buffer.add_string buf "From | To\n";
    Buffer.add_string buf "-----+----\n"
  end;
  let sorted =
    List.sort
      (fun a b ->
        let c = compare a.from_uri b.from_uri in
        if c <> 0 then c else compare a.to_uri b.to_uri)
      (links g)
  in
  List.iter
    (fun l ->
      if with_rule then
        Buffer.add_string buf
          (Printf.sprintf "%-4s | %-4s | %s%s\n" l.from_uri l.to_uri l.rule
             (if l.inherited then " (inherited)" else ""))
      else Buffer.add_string buf (Printf.sprintf "%-4s | %s\n" l.from_uri l.to_uri))
    sorted;
  Buffer.contents buf
