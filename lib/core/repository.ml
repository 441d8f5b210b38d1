(* A file-based repository for workflow executions — the durable version
   of two Figure 5 stores (the Provenance store is the daemon's WAL):

     <root>/<id>/document.xml    the Resource Repository entry
     <root>/<id>/trace.xml       the Execution Trace store entry

   Loading restores everything inference needs: the reloaded document gets
   its arena timestamps rebuilt from the persisted @t labels, so
   post-hoc inference over a loaded execution equals inference over the
   live one (tested). *)

open Weblab_xml

exception Error of string

type t = { root : string }

let open_at root =
  if not (Sys.file_exists root) then Sys.mkdir root 0o755
  else if not (Sys.is_directory root) then
    raise (Error (root ^ " exists and is not a directory"));
  { root }

let dir t id = Filename.concat t.root id

let path t id file = Filename.concat (dir t id) file

let write_file path contents =
  let oc = open_out_bin path in
  (try output_string oc contents
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc

let read_file path =
  if not (Sys.file_exists path) then raise (Error ("missing " ^ path));
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Valid execution ids are safe path segments. *)
let check_id id =
  if
    id = "" || String.exists (fun c -> c = '/' || c = '\\' || c = '.') id
  then raise (Error (Printf.sprintf "invalid execution id %S" id))

(* The document streams straight to the file through [Printer.to_channel]
   — no whole-document string in memory on the store path. *)
let write_doc path doc =
  let oc = open_out_bin path in
  (try Printer.to_channel ~indent:true oc doc
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc

let store t ~id (exec : Engine.execution) =
  check_id id;
  if not (Sys.file_exists (dir t id)) then Sys.mkdir (dir t id) 0o755;
  write_doc (path t id "document.xml") exec.Engine.doc;
  write_file (path t id "trace.xml") (Trace_io.to_xml exec.Engine.trace)

let load t ~id : Engine.execution =
  check_id id;
  let doc_path = path t id "document.xml" in
  if not (Sys.file_exists doc_path) then raise (Error ("missing " ^ doc_path));
  (* Chunked streaming ingest: the file is parsed straight into the
     arena, never materialized as a string. *)
  let ic = open_in_bin doc_path in
  let doc =
    match Ingest.of_channel ic with
    | doc ->
      close_in ic;
      doc
    | exception (Xml_parser.Error _ as e) ->
      close_in_noerr ic;
      raise (Error (Xml_parser.error_to_string e))
    | exception e ->
      close_in_noerr ic;
      raise e
  in
  Doc_state.restore_timestamps doc;
  let trace =
    try Trace_io.of_xml (read_file (path t id "trace.xml"))
    with Trace_io.Malformed m -> raise (Error m)
  in
  { Engine.doc; trace }

let executions t =
  if not (Sys.file_exists t.root) then []
  else
    Sys.readdir t.root |> Array.to_list
    |> List.filter (fun id ->
           Sys.is_directory (dir t id)
           && Sys.file_exists (path t id "document.xml"))
    |> List.sort String.compare
