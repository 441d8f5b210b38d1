module T = Weblab_obs.Telemetry
module M = Weblab_obs.Metrics

let c_accepted = T.counter "serve.sessions.accepted"
let c_rejected = T.counter "serve.sessions.rejected"

(* Active sessions is a level, not a tally: it goes down on close, so a
   monotonic counter is the wrong type.  The gauge mirrors [live]. *)
let g_active = M.gauge "serve.sessions.active"

(* A slot is claimed before the session is built (the orchestration
   prologue runs outside the lock), so the table distinguishes the two
   states: a [Building] slot blocks duplicate opens and counts against
   the cap, but is invisible to [find]. *)
type entry = Building | Live of Session.t

type t = {
  lock : Mutex.t;
  tbl : (string, entry) Hashtbl.t;  (* live + building sessions *)
  cap : int;
  mutable next : int;  (* under [lock]: the next automatic id to try *)
}

let create ?(max_sessions = 1024) () =
  { lock = Mutex.create (); tbl = Hashtbl.create 16; cap = max 1 max_sessions;
    next = 1 }

let max_sessions t = t.cap

(* The next "s<n>" no slot holds: a client may have chosen that name, or
   boot restored it from a WAL.  Called under [lock]. *)
let rec pick_id t =
  let id = Printf.sprintf "s%d" t.next in
  t.next <- t.next + 1;
  if Hashtbl.mem t.tbl id then pick_id t else id

type open_error =
  | Admission_rejected of string
  | Already_open of string

(* The duplicate check, the admission cap, the choice of an automatic id
   and the claim are one critical section; a duplicate id is
   [Already_open] whether or not a slot is free.  Building the session
   happens outside the lock, so a rejected open does no orchestration
   work and a slow build blocks no other connection. *)
let add ?(capped = true) t ~id build =
  let claim =
    Mutex.protect t.lock (fun () ->
        match id with
        | Some id when Hashtbl.mem t.tbl id -> Error (Already_open id)
        | _ when capped && Hashtbl.length t.tbl >= t.cap ->
          Error
            (Admission_rejected
               (Printf.sprintf "session limit reached (%d live)" t.cap))
        | _ ->
          let id = match id with Some id -> id | None -> pick_id t in
          Hashtbl.replace t.tbl id Building;
          Ok id)
  in
  match claim with
  | Error _ as e ->
    T.incr c_rejected;
    e
  | Ok id -> (
    match build ~id with
    | sess ->
      Mutex.protect t.lock (fun () -> Hashtbl.replace t.tbl id (Live sess));
      T.incr c_accepted;
      M.add g_active 1;
      Ok sess
    | exception e ->
      Mutex.protect t.lock (fun () -> Hashtbl.remove t.tbl id);
      raise e)

let find t id =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.tbl id with
      | Some (Live s) -> Some s
      | Some Building | None -> None)

let remove t id =
  let removed =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.tbl id with
        | Some (Live s) ->
          Hashtbl.remove t.tbl id;
          Some s
        | Some Building | None -> None)
  in
  if Option.is_some removed then M.add g_active (-1);
  removed

let live t = Mutex.protect t.lock (fun () -> Hashtbl.length t.tbl)

let ids t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun k e acc -> match e with Live _ -> k :: acc | Building -> acc)
        t.tbl [])
  |> List.sort String.compare
