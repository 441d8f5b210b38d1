(* The benchmark's entry point (run through run.py, which builds it):

     main.exe --workload W --seed N --seconds S --trace 0|1
              --serve PATH --work-dir DIR [--rev REV]

   prints one diagnostics line, then the result line (Schema). *)

module J = Weblab_server.Json
open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload persist-chain|infer-query|xml-ingest --seed N \
     --seconds S --trace 0|1 --serve PATH --work-dir DIR [--rev REV]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload =
    match Gen.workload_of_string (get "--workload") with Some w -> w | None -> usage ()
  in
  let seed = int "--seed" and seconds = int "--seconds" in
  let trace =
    match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  if seconds < 1 then usage ();
  let rev = Option.value ~default:"unknown" (List.assoc_opt "--rev" opts) in
  let diag, result =
    Run.run ~workload ~seed ~seconds ~trace ~serve:(get "--serve")
      ~work_dir:(get "--work-dir") ~rev
  in
  print_endline (J.to_string (J.Obj [ ("diagnostics", diag) ]));
  print_endline (Schema.to_string result)
