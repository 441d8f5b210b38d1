(** Document states — the chain d₀ ⊑ d₁ ⊑ … ⊑ dₙ of Definition 2.

    Because the arena is append-only and every node records the timestamp
    of the service call that created it, the state of the document at time
    [t] is the restriction of the arena to nodes created at or before [t]:
    states are O(1) views, never copies.  This is what makes the
    state-replay evaluation strategy cheap, and what the §4 rewriting
    emulates with [@t] predicates on the final document. *)

type t
(** A document state: a document plus a cut-off timestamp. *)

val at : Tree.t -> Tree.timestamp -> t
(** [at doc t] is the state dₜ. *)

val final : Tree.t -> t
(** The state containing every node (d_n). *)

val time : t -> Tree.timestamp

val doc : t -> Tree.t
(** The underlying arena ({b not} restricted — use {!visible}). *)

val visible : t -> Tree.node -> bool
(** Membership of a node in the state. *)

val nodes : t -> Tree.node list
(** All nodes of the state, in document order. *)

val contains : smaller:t -> larger:t -> bool
(** The containment d ⊑{_ uri} d' for two states of the same arena
    (false if the states belong to different documents). *)

val added_fragment_roots : smaller:t -> larger:t -> Tree.node list
(** The bag d' \ d of Definition 1: roots of the fragments added strictly
    after [smaller]'s time and visible in [larger].
    @raise Invalid_argument if the states belong to different documents. *)

val timestamps_monotonic : Tree.t -> bool
(** Whether every node's creation timestamp is ≥ its parent's — the
    invariant §4 relies on to drop temporal tests on intermediate pattern
    steps.  The orchestrator maintains it; property tests check it. *)

val restore_timestamps : Tree.t -> unit
(** Reconstruct per-node creation timestamps from the persisted [@t]
    labels — required after reloading a document from storage, since
    arena timestamps are session state.  Exact for Recorder-produced
    documents (every fragment root is a labeled resource); nodes above
    the first labeled resource count as initial (t = 0). *)
