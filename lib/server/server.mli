(** The TCP front end: a listener plus one thread per connection, each
    running {!Protocol.handle_line} over newline-delimited JSON.

    Threads (not domains) carry connections: a verb's work is dominated
    by inference, which each session parallelizes through its own backend
    {!Weblab_prov.Pool} when asked to — the connection layer only needs
    enough concurrency to overlap blocked reads, which systhreads give
    without multiplying domains by connection count. *)

type t

val start : ?host:string -> ?port:int -> Protocol.ctx -> t
(** Bind, listen and spawn the accept loop.  [port 0] (the default picks
    8321) binds an ephemeral port — read it back with {!port}; that is
    how the in-process bench and the tests avoid fixed ports.  SIGPIPE is
    ignored process-wide (a client vanishing mid-response must not kill
    the daemon).
    @raise Unix.Unix_error when the address cannot be bound. *)

val port : t -> int
(** The actual bound port. *)

val stop : t -> unit
(** Close the listener, shut down live connections, join every thread.
    Idempotent. *)
