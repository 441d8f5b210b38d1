module T = Weblab_obs.Telemetry
module M = Weblab_obs.Metrics
module Sink = Weblab_rdf.Sink

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

(* The longest request line read, newline excluded: far above any real
   request, and a bound on what one client can make the daemon buffer. *)
let max_request_bytes = 16 * 1024 * 1024

(* Whether none of the eight bytes at [k] is '\n': the zero-byte test on
   the word XORed with newlines.  It keeps the scan for a request's end
   as fast as [input_line]'s. *)
let no_newline b k =
  let x = Int64.logxor (Bytes.get_int64_le b k) 0x0a0a0a0a0a0a0a0aL in
  Int64.(
    equal (logand (logand (sub x 0x0101010101010101L) (lognot x)) 0x8080808080808080L) 0L)

(* One connection: read request lines until EOF or an oversized line,
   answer each on its own line.  Replies go through one writer per
   connection, which drains into the channel 64 KiB at a time while the
   reply is produced.  Any socket-level error just ends the connection —
   protocol and session errors were already turned into [ok:false]
   responses inside {!Protocol.write_line}. *)
let serve_conn ctx fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let w = Sink.create ~size:Sink.chunk (output oc) in
  let reply write =
    write w;
    Sink.add_char w '\n';
    Sink.flush w;
    flush oc
  in
  (* [input_line] in blocks up to the cap: [!block] holds unread bytes on
     [!pos, !len).  A line that ends in the block it started in is copied
     out once.  A longer one hands each block over to [pieces] (newest
     first, [size] bytes in all) once it is full and reads on into a
     fresh block; its bytes are copied once, when the pieces are joined. *)
  let block = ref (Bytes.create 65536) and pos = ref 0 and len = ref 0 in
  let answer pieces size j =
    let b = !block and i = !pos in
    let l =
      if pieces = [] then Bytes.sub_string b i (j - i)
      else begin
        let l = Bytes.create (size + j - i) and at = ref size in
        Bytes.blit b i l size (j - i);
        List.iter
          (fun (p, off, k) ->
            at := !at - k;
            Bytes.blit p off l !at k)
          pieces;
        Bytes.unsafe_to_string l
      end
    in
    if String.length (String.trim l) > 0 then reply (Protocol.write_line ctx l)
  in
  (* The line so far is [pieces], then [!pos, from) of [!block], where
     no byte is '\n'. *)
  let rec serve pieces size from =
    let b = !block and i = !pos and n = !len in
    let j = ref from in
    while !j + 8 <= n && no_newline b !j do
      j := !j + 8
    done;
    while !j < n && Bytes.unsafe_get b !j <> '\n' do
      incr j
    done;
    let j = !j in
    if size + j - i > max_request_bytes then
      reply (fun w ->
          Sink.add_string w
            (Printf.sprintf
               {|{"ok":false,"error":"request_too_large","message":"request line longer than %d bytes"}|}
               max_request_bytes))
    else if j < n then begin
      answer pieces size j;
      pos := j + 1;
      serve [] 0 (j + 1)
    end
    else begin
      let pieces, size =
        if i = n then begin
          pos := 0;
          len := 0;
          (pieces, size)
        end
        else if n = Bytes.length b then begin
          block := Bytes.create n;
          pos := 0;
          len := 0;
          ((b, i, n - i) :: pieces, size + n - i)
        end
        else (pieces, size)
      in
      let from = !len in
      let k = input ic !block from (Bytes.length !block - from) in
      if k = 0 then (* the last line of the input *) answer pieces size from
      else begin
        len := from + k;
        serve pieces size from
      end
    end
  in
  try serve [] 0 0 with Sys_error _ | Unix.Unix_error _ -> ()

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
