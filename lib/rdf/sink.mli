(** A bounded byte stage that drains in fixed-size pieces — what every
    streamed render writes into.

    Bytes accumulate in one stage of [size] bytes; whenever the stage is
    full, and at {!flush}, its filled prefix goes to the [drain] function
    given at creation.  A large text (a Turtle export, a SPARQL reply)
    therefore never exists as one string: it leaves [size] bytes at a
    time, into a channel, a [Buffer.t], or another sink's escaper.  The
    bytes [drain] receives are only valid during the call. *)

type t

val chunk : int
(** 64 KiB: the stage size the serving path drains at. *)

val create : size:int -> (Bytes.t -> int -> int -> unit) -> t
(** [create ~size drain]: an empty sink whose stage holds [size] bytes;
    [drain buf off len] receives each full stage.
    @raise Invalid_argument if [size < 1]. *)

val size : t -> int

val add_char : t -> char -> unit

val add_string : t -> string -> unit

val add_substring : t -> string -> int -> int -> unit
(** [add_substring t s off len] writes [s.[off .. off+len-1]]. *)

val flush : t -> unit
(** Drain the staged bytes, if any. *)

val length : t -> int
(** Bytes written so far, drained or staged. *)

val rewind : t -> int -> bool
(** [rewind t mark] drops what was written after position [mark] (an
    earlier {!length}) and returns [true], provided none of it has been
    drained yet; otherwise it changes nothing and returns [false]. *)
