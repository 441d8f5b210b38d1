(* Provenance graphs (Definition 3): labeled DAGs connecting each resource
   of the final document to the resources used to generate it.  The two
   tables of Figure 2 — Source (the labeling function λ) and Provenance
   (the edge set E) — are both views of this structure. *)

open Weblab_xml
open Weblab_workflow

type link = {
  from_uri : string;  (* the generated resource (the newer endpoint) *)
  to_uri : string;    (* the resource it was derived from *)
  rule : string;      (* name of the mapping rule that inferred it *)
  inherited : bool;   (* implicit link obtained by structural propagation *)
}

(* Every label, link and member remembers the step that added it: the
   timestamp of the call during which it entered the graph.  The PROV
   export emits the graph step by step in that order, so the export of a
   run's prefix is a prefix of the export of the whole run.  Labels and
   Skolem entities are kept in first-insertion order, links and members
   in insertion order. *)
type t = {
  links : link Vec.t;
  link_steps : int Vec.t;  (* [no_step] when the adder gave none *)
  labels : (string, Trace.call * int) Hashtbl.t;  (* uri -> call, step *)
  label_order : string Vec.t;
  mutable traced : int;  (* trace entries applied by [label_trace] *)
  members : (string, string) Hashtbl.t;
      (* synthetic Skolem entity -> member resource uris *)
  member_log : (string * string * int) Vec.t;  (* entity, member, step *)
  entities : string Vec.t;  (* Skolem entities, first-insertion order *)
  dedup : (string, unit) Hashtbl.t;
  succ : (string, link) Hashtbl.t;  (* from_uri -> its links *)
  pred : (string, link) Hashtbl.t;  (* to_uri -> its links *)
}

let no_step = -1

let no_link = { from_uri = ""; to_uri = ""; rule = ""; inherited = false }

let create () =
  {
    links = Vec.create ~dummy:no_link;
    link_steps = Vec.create ~dummy:no_step;
    labels = Hashtbl.create 32;
    label_order = Vec.create ~dummy:"";
    traced = 0;
    members = Hashtbl.create 8;
    member_log = Vec.create ~dummy:("", "", no_step);
    entities = Vec.create ~dummy:"";
    dedup = Hashtbl.create 64;
    succ = Hashtbl.create 64;
    pred = Hashtbl.create 64;
  }

(* Relabeling a resource keeps the step it was first labeled at. *)
let set_label ?step g uri call =
  match Hashtbl.find_opt g.labels uri with
  | Some (_, first) -> Hashtbl.replace g.labels uri (call, first)
  | None ->
    Hashtbl.add g.labels uri (call, Option.value step ~default:call.Trace.time);
    Vec.push g.label_order uri

let label g uri = Option.map fst (Hashtbl.find_opt g.labels uri)

let label_count g = Hashtbl.length g.labels

(* Ties on time are broken by URI, so the order depends on the label set
   only, never on the table's insertion history. *)
let labeled_resources g =
  Hashtbl.fold (fun uri (call, _) acc -> (uri, call) :: acc) g.labels []
  |> List.sort (fun (u, a) (v, b) ->
         let c = compare a.Trace.time b.Trace.time in
         if c <> 0 then c else String.compare u v)

let label_trace g trace =
  Trace.iter_entries_from trace g.traced (fun e step ->
      set_label ~step g e.Trace.uri e.Trace.call);
  g.traced <- Trace.entry_count trace

let of_trace trace =
  let g = create () in
  label_trace g trace;
  g

let link_key l =
  String.concat "\x00" [ l.from_uri; l.to_uri; l.rule; string_of_bool l.inherited ]

let add_link ?(rule = "") ?(inherited = false) ?step g ~from_uri ~to_uri =
  (* Self-dependencies are meaningless (and Definition 3 requires a DAG). *)
  if not (String.equal from_uri to_uri) then begin
    let l = { from_uri; to_uri; rule; inherited } in
    let k = link_key l in
    if not (Hashtbl.mem g.dedup k) then begin
      Hashtbl.add g.dedup k ();
      Vec.push g.links l;
      Vec.push g.link_steps (Option.value step ~default:no_step);
      Hashtbl.add g.succ from_uri l;
      Hashtbl.add g.pred to_uri l
    end
  end

let add_member g ~step ~entity ~member =
  if not (Hashtbl.mem g.members entity) then Vec.push g.entities entity;
  Hashtbl.add g.members entity member;
  Vec.push g.member_log (entity, member, step)

(* In insertion order. *)
let members g entity = List.rev (Hashtbl.find_all g.members entity)

let member_count g = Vec.length g.member_log

let skolem_entities g = Vec.to_list g.entities

let links g = Vec.to_list g.links

let size g = Vec.length g.links

(* ----- Step-attributed suffixes, for incremental export ----- *)

let label_step g uri = Option.map snd (Hashtbl.find_opt g.labels uri)

let iter_labels_from g k f =
  for i = k to Vec.length g.label_order - 1 do
    let uri = Vec.get g.label_order i in
    let call, step = Hashtbl.find g.labels uri in
    f uri call step
  done

(* A link no adder attributed (an inherited or reloaded one) belongs to
   the step its generated end was labeled at, or after every step when
   that end is unlabeled. *)
let iter_links_from g k f =
  for i = k to Vec.length g.links - 1 do
    let l = Vec.get g.links i in
    let step =
      match Vec.get g.link_steps i with
      | s when s <> no_step -> s
      | _ -> Option.value (label_step g l.from_uri) ~default:max_int
    in
    f l step
  done

let iter_members_from g k f =
  for i = k to Vec.length g.member_log - 1 do
    let entity, member, step = Vec.get g.member_log i in
    f entity member step
  done

(* Direct dependencies of a resource: the resources it was derived from. *)
let depends_on g uri =
  Hashtbl.find_all g.succ uri
  |> List.map (fun l -> l.to_uri)
  |> List.sort_uniq String.compare

(* The resources directly derived from [uri]. *)
let used_by g uri =
  Hashtbl.find_all g.pred uri
  |> List.map (fun l -> l.from_uri)
  |> List.sort_uniq String.compare

let has_link ?rule g ~from_uri ~to_uri =
  List.exists
    (fun l ->
      String.equal l.to_uri to_uri
      && match rule with None -> true | Some r -> String.equal r l.rule)
    (Hashtbl.find_all g.succ from_uri)

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
