(* Provenance graphs (Definition 3): labeled DAGs connecting each resource
   of the final document to the resources used to generate it.  Of the two
   tables of Figure 2, Source (the labeling function λ) is the execution
   trace the graph reads, and the graph holds Provenance (the edge set E). *)

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
   run's prefix is a prefix of the export of the whole run.  Labels (in
   the trace) and Skolem entities are kept in first-insertion order,
   links and members in insertion order. *)
type t = {
  mutable trace : Trace.t;  (* λ: labels and their steps *)
  links : link Vec.t;
  link_steps : int Vec.t;  (* [no_step] when the adder gave none *)
  members : (string, string) Hashtbl.t;
      (* synthetic Skolem entity -> member resource uris *)
  member_log : (string * string * int) Vec.t;  (* entity, member, step *)
  entities : string Vec.t;  (* Skolem entities, first-insertion order *)
  succ : (string, link) Hashtbl.t;  (* from_uri -> its links *)
  pred : (string, link) Hashtbl.t;  (* to_uri -> its links *)
}

let no_step = -1

let no_link = { from_uri = ""; to_uri = ""; rule = ""; inherited = false }

let of_trace trace =
  {
    trace;
    links = Vec.create ~dummy:no_link;
    link_steps = Vec.create ~dummy:no_step;
    members = Hashtbl.create 8;
    member_log = Vec.create ~dummy:("", "", no_step);
    entities = Vec.create ~dummy:"";
    succ = Hashtbl.create 64;
    pred = Hashtbl.create 64;
  }

let create () = of_trace (Trace.create ())

let attach_trace g trace = g.trace <- trace

let set_label ?step g uri call =
  Trace.add_entry ?step g.trace { Trace.uri; node = Tree.no_node; call }

let label g uri = Trace.call_of_resource g.trace uri

let label_count g = Trace.entry_count g.trace

(* Ties on time are broken by URI, so the order depends on the label set
   only, never on the trace's insertion history. *)
let labeled_resources g =
  let acc = ref [] in
  Trace.iter_entries_from g.trace 0 (fun e _ ->
      acc := (e.Trace.uri, e.Trace.call) :: !acc);
  List.sort
    (fun (u, a) (v, b) ->
      let c = compare a.Trace.time b.Trace.time in
      if c <> 0 then c else String.compare u v)
    !acc

let add_link ?(rule = "") ?(inherited = false) ?step g ~from_uri ~to_uri =
  (* Self-dependencies are meaningless (and Definition 3 requires a DAG). *)
  if not (String.equal from_uri to_uri) then begin
    let same l =
      String.equal l.to_uri to_uri && String.equal l.rule rule
      && Bool.equal l.inherited inherited
    in
    if not (List.exists same (Hashtbl.find_all g.succ from_uri)) then begin
      let l = { from_uri; to_uri; rule; inherited } in
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

let iter_labels_from g k f =
  Trace.iter_entries_from g.trace k (fun e step ->
      f e.Trace.uri e.Trace.call step)

(* A link no adder attributed (an inherited or reloaded one) belongs to
   the step its generated end was labeled at, or after every step when
   that end is unlabeled. *)
let iter_links_from g k f =
  for i = k to Vec.length g.links - 1 do
    let l = Vec.get g.links i in
    let step =
      match Vec.get g.link_steps i with
      | s when s <> no_step -> s
      | _ ->
        Option.value (Trace.step_of_resource g.trace l.from_uri)
          ~default:max_int
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
  (* Kahn's algorithm over the successor adjacency. *)
  let indeg = Hashtbl.create 64 in
  let add u d =
    Hashtbl.replace indeg u (d + Option.value (Hashtbl.find_opt indeg u) ~default:0)
  in
  List.iter (fun l -> add l.from_uri 0; add l.to_uri 1) (links g);
  let queue = Queue.create () in
  Hashtbl.iter (fun u d -> if d = 0 then Queue.add u queue) indeg;
  let visited = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    incr visited;
    List.iter
      (fun l ->
        add l.to_uri (-1);
        if Hashtbl.find indeg l.to_uri = 0 then Queue.add l.to_uri queue)
      (Hashtbl.find_all g.succ u)
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
