module T = Weblab_obs.Telemetry
module M = Weblab_obs.Metrics

let c_conns = T.counter "serve.connections"
let g_conns_active = M.gauge "serve.connections.active"

let log_src = Logs.Src.create "weblab.serve" ~doc:"provenance serving daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

type conn = { c_fd : Unix.file_descr; mutable c_thread : Thread.t option }

type t = {
  listen_fd : Unix.file_descr;
  bound_port : int;
  accept_thread : Thread.t;
  conns : conn list ref;
  conns_lock : Mutex.t;
  stopping : bool Atomic.t;
}

let ignore_sigpipe () =
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* One connection: read request lines until EOF, answer each on its own
   line.  Any socket-level error just ends the connection — protocol and
   session errors were already turned into [ok:false] responses inside
   {!Protocol.handle_line}. *)
let serve_conn ctx fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  try
    let rec loop () =
      let line = input_line ic in
      if String.length (String.trim line) > 0 then begin
        output_string oc (Protocol.handle_line ctx line);
        output_char oc '\n';
        flush oc
      end;
      loop ()
    in
    loop ()
  with
  | End_of_file -> ()
  | Sys_error _ -> ()
  | Unix.Unix_error _ -> ()

let start ?(host = "127.0.0.1") ?(port = 8321) ctx =
  ignore_sigpipe ();
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd addr;
     Unix.listen listen_fd 128
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  let conns = ref [] in
  let conns_lock = Mutex.create () in
  let stopping = Atomic.make false in
  let rec accept_loop () =
    match Unix.accept listen_fd with
    | fd, _peer ->
      if Atomic.get stopping then
        (* the wake-up connection from [stop]: drop it and exit *)
        (try Unix.close fd with Unix.Unix_error _ -> ())
      else begin
        T.incr c_conns;
        (* Register before spawning, and let the connection deregister
           itself and close its fd under the registry lock: [stop] only
           shuts down fds still registered (inside the same lock), so it
           can never touch a recycled descriptor. *)
        let c = { c_fd = fd; c_thread = None } in
        Mutex.protect conns_lock (fun () -> conns := c :: !conns);
        M.add g_conns_active 1;
        let th =
          Thread.create
            (fun () ->
              serve_conn ctx fd;
              Mutex.protect conns_lock (fun () ->
                  conns := List.filter (fun c' -> c' != c) !conns;
                  try Unix.close fd with Unix.Unix_error _ -> ());
              M.add g_conns_active (-1))
            ()
        in
        Mutex.protect conns_lock (fun () -> c.c_thread <- Some th);
        accept_loop ()
      end
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
      (* the listener was closed under us: shutdown *)
      ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
  in
  Log.info (fun m -> m "listening on %s:%d" host bound_port);
  let accept_thread = Thread.create accept_loop () in
  { listen_fd; bound_port; accept_thread; conns; conns_lock; stopping }

let port t = t.bound_port

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* Closing the listener does NOT wake a thread blocked in accept(2)
       on Linux — poke it with a throwaway connection instead, and only
       close the fd once the loop has exited. *)
    (try
       let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.bound_port))
        with Unix.Unix_error _ -> ());
       try Unix.close fd with Unix.Unix_error _ -> ()
     with Unix.Unix_error _ -> ());
    Thread.join t.accept_thread;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* Wake blocked reads while the entries are provably live (inside the
       lock), then join on the snapshot. *)
    let snapshot =
      Mutex.protect t.conns_lock (fun () ->
          List.iter
            (fun c ->
              try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL
              with Unix.Unix_error _ -> ())
            !(t.conns);
          !(t.conns))
    in
    List.iter
      (fun c -> match c.c_thread with Some th -> Thread.join th | None -> ())
      snapshot
  end
