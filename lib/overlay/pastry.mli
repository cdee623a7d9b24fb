(** A whole Pastry overlay, constructed from global knowledge (as a
    simulator may) but routed using only per-node local state.

    Each node holds a leaf set and a secure jump table. The tables are the
    Castro-constrained ones of {!Inc_table}, read through a permutation
    between node indices and sorted ring positions. Message forwarding
    follows the Pastry rule: finish within the leaf set when possible,
    otherwise jump by prefix, otherwise fall back to any known
    strictly-closer peer. *)

type node = { index : int; id : Id.t; leaf_set : Leaf_set.t }

type t

val build : ?leaf_half_size:int -> Id.t array -> t
(** Build an overlay over the given identifiers (default [leaf_half_size] 8
    — a 16-member leaf set). Node [i] has identifier [ids.(i)]. Duplicate
    identifiers are rejected. *)

val node_count : t -> int
val node : t -> int -> node
val leaf_half_size : t -> int

val slot : t -> int -> row:int -> col:int -> int option
(** [slot t v ~row ~col]: node index held by slot (row, col) of node [v]'s
    secure jump table — the live node closest to [with_digit v.id row col]
    among those with that point's (row+1)-digit prefix, [v] excluded. *)

val occupancy : t -> int -> int
(** Number of filled slots in a node's jump table (precomputed). *)

val index_of_id : t -> Id.t -> int option
val numerically_closest : t -> Id.t -> int
(** Index of the live node whose identifier minimises ring distance to the
    key — the key's root. *)

val next_hop : t -> from:int -> dest:Id.t -> int option
(** [None] when [from] is already the destination's root. The fallback
    considers leaf members first, then slots row-major. *)

val route : t -> from:int -> dest:Id.t -> int list
(** Node indices visited, starting with [from] and ending at the root of
    [dest]. @raise Failure if forwarding livelocks (cannot happen on
    well-formed overlays; guarded for safety). *)

val routing_peers : t -> int -> int array
(** Distinct node indices appearing in a node's jump table or leaf set —
    the leaves of its tomography tree T_H. *)

val mean_routing_peer_count : t -> float
