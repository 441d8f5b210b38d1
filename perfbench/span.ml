(* Spans recorded by the benchmark around calls into the program's
   layers, kept in memory.  Each span is one call: its name, its start
   and end, the span that was open when it started (its parent) and the
   request it served.  A layer's self time is its span's duration minus
   the part its child spans cover. *)

type t = {
  name : string;
  req : int;  (** index of the request the span served *)
  parent : string option;
  t0 : float;
  t1 : float;
  self : float;  (** seconds not covered by child spans *)
}

let spans : t list ref = ref []
let open_spans : (string * float ref) list ref = ref []  (* name, children's time *)
let current_req = ref 0

let reset () =
  spans := [];
  open_spans := []

let close name ~t0 ~t1 ~children =
  let d = t1 -. t0 in
  let parent = match !open_spans with (p, c) :: _ -> c := !c +. d; Some p | [] -> None in
  spans := { name; req = !current_req; parent; t0; t1; self = d -. children } :: !spans

let span name f =
  let children = ref 0. in
  open_spans := (name, children) :: !open_spans;
  let t0 = Unix.gettimeofday () in
  let finish () =
    let t1 = Unix.gettimeofday () in
    open_spans := List.tl !open_spans;
    close name ~t0 ~t1 ~children:!children
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let last_duration () = match !spans with s :: _ -> s.t1 -. s.t0 | [] -> 0.

type agg = { calls : int; total_s : float; self_s : float }

let aggregate name =
  List.fold_left
    (fun a s ->
      if String.equal s.name name then
        { calls = a.calls + 1; total_s = a.total_s +. (s.t1 -. s.t0); self_s = a.self_s +. s.self }
      else a)
    { calls = 0; total_s = 0.; self_s = 0. }
    !spans
