(** Incrementally maintained constrained ("secure") routing tables over a
    {!Ring} universe — the one implementation of the secure-slot rule;
    {!Pastry} reads its jump tables from here.

    Semantics: for every universe position [owner] (alive or dead), slot
    [(row, col)] holds the universe position of the alive node closest on
    the ring to the point [with_digit owner_id row col] among alive nodes
    sharing the point's (row+1)-digit prefix, excluding the owner itself
    (ties to the smaller id). A per-owner full-scan oracle of the same rule
    lives in the test suite and pins this module slot for slot. Join/leave apply
    single-node deltas instead of rebuilds; dead owners keep maintained
    tables so rejoining needs no rebuild. Only the first [rows] rows are
    materialised; deeper rows are computed on demand with identical
    semantics. *)

type t

type maintenance = { writes : int; changed : int; owners : int }
(** Per-event accounting: slots written, slots whose value actually
    changed, and distinct owners whose table changed. *)

val build : ?pool:Concilium_util.Pool.t -> ?rows:int -> Ring.t -> t
(** Sweep-build all tables over the ring's current alive set, O(n) per
    materialised row per digit class. [rows] defaults to
    ceil(log_base n) + 1. The table keeps (and mutates through
    [apply_join]/[apply_leave]) the ring.

    With [?pool] the sweep fans out over the pool as (row, group,
    class-range) units that write disjoint slot regions. Slot values are
    pure functions of the ring, so the resulting table is byte-identical
    to the sequential build for any domain count (unlike experiment shard
    counts, the task decomposition here may depend on the pool size). *)

val materialized_rows : t -> int

val entry : t -> owner:int -> row:int -> col:int -> int
(** Universe position of the slot's peer, or -1. Any [row < Id.digits];
    rows beyond [materialized_rows] are computed on demand. *)

val compute_entry : t -> owner:int -> row:int -> col:int -> int
(** From-scratch slot computation (ignores the materialised value). *)

val apply_leave : t -> int -> maintenance
(** Mark the node dead and apply the delta. @raise Invalid_argument if it
    is already dead. *)

val apply_join : t -> int -> maintenance
(** Mark the node alive and apply the delta. @raise Invalid_argument if it
    is already alive. *)

val rebuild_owner : t -> int -> int
(** Recompute one owner's materialised slots from scratch (the comparator
    the scale bench prices deltas against); returns how many slots
    disagreed with the maintained values — 0 when consistent. *)

val events : t -> int
val total_writes : t -> int
val total_changed : t -> int
val total_owners : t -> int
(** Cumulative maintenance counters across all join/leave events. *)

val checksum : t -> int64
(** FNV-1a over all materialised slots; transcript fodder. *)

val numerically_closest : t -> Id.t -> int
(** Alive position minimising ring distance to the key (ties to the
    smaller id), or -1 when nothing is alive — the key's root. *)

val next_hop : t -> leaf_half:int -> here:int -> dest:Id.t -> int option
(** Pastry-style forwarding: leaf-set coverage first, then the table slot
    for the first differing digit, then the numerical-progress fallback. *)

val route : t -> leaf_half:int -> src:int -> dest:Id.t -> int * int * int64
(** Greedy route toward the key's root: (final position, hop count, FNV
    digest of the hop sequence). *)
