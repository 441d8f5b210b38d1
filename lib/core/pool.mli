(** A fixed-size pool of OCaml 5 domains with per-worker work-stealing
    deques, sized for the inference fan-outs: a batch of coarse,
    independent work items (one rule evaluation each, micro- to
    milliseconds) is distributed over the workers and the results are
    returned {e in item order}, so callers can merge them exactly as the
    sequential loop would have produced them.

    [jobs] counts the total parallelism: the calling domain always
    participates as worker 0, and [jobs - 1] extra domains are spawned.
    [jobs = 1] spawns nothing and runs every item in the caller, in
    index order — the exact sequential path.

    The pool is reusable across batches (workers park on a condition
    variable between them), which is what the execution-time backends
    need: one pool for the whole run, one batch per committed call. *)

type t

val default_jobs : unit -> int
(** The hardware default: [Domain.recommended_domain_count () - 1]
    (leaving a core for the orchestrator), floored at 1.  The [JOBS]
    environment variable overrides it.  This is the CLI's [--jobs]
    default only; the library's is {!configured_jobs}. *)

val configured_jobs : unit -> int
(** The library default for inference entry points: the [JOBS]
    environment variable when set (this is how [JOBS=4 dune runtest]
    exercises the parallel path), and 1 — the sequential path —
    otherwise.  Explicit [?jobs] arguments always win. *)

val create : ?jobs:int -> unit -> t
(** [jobs] defaults to {!configured_jobs}; values below 1 are clamped
    to 1. *)

val jobs : t -> int
(** Total parallelism of the pool (including the calling domain). *)

type stats = {
  steals : int;  (** items taken from another worker's deque *)
  parks : int;  (** times a spawned worker blocked waiting for a batch *)
  batches : int;  (** {!map}/{!iter} calls with at least one item *)
  items_per_worker : int array;  (** items executed, by worker slot *)
}

val stats : t -> stats
(** Lifetime counters of the pool (cheap atomic reads; callable while a
    batch runs, in which case the numbers are a momentary snapshot).
    {!shutdown} also folds them into the telemetry recorder as
    [pool.steals] / [pool.parks] / [pool.batches] / [pool.items.w<i>]
    counters when it is enabled, which is how [--profile] reports pools
    that live and die inside a strategy backend. *)

val map : t -> int -> (int -> 'a) -> 'a array
(** [map pool n f] computes [f i] for every [i] in [0, n): items are
    block-distributed over the per-worker deques, idle workers steal
    from the top of a victim's deque, and the results land in slot [i]
    of the returned array regardless of which worker ran the item.
    [f] must be safe to run from any domain (it may only read shared
    state); exceptions are re-raised in the caller — the first one
    observed wins and the batch still drains.  Not reentrant: one batch
    at a time per pool. *)

val iter : t -> int -> (int -> unit) -> unit
(** {!map} without results. *)

val shutdown : t -> unit
(** Join the worker domains.  Idempotent; the pool must be idle. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exceptions). *)
