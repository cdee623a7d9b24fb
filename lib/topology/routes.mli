(** Shortest-path IP routes.

    Routes are computed by breadth-first search with deterministic
    tie-breaking (neighbors visited in adjacency order), standing in for the
    stable Internet routes the paper assumes (Zhang et al. observe routes
    stable for a day or more, so Concilium treats the link map as quasi-
    static). *)

type path = {
  nodes : int array;  (** visited routers, source first, destination last *)
  links : int array;  (** traversed link ids; length = length nodes - 1 *)
}

val hop_count : path -> int

val shortest_paths : Graph.t -> source:int -> targets:int array -> path option array
(** One BFS from [source]; [None] for unreachable targets. Paths share no
    mutable state and may be retained. *)

val shortest_path : Graph.t -> source:int -> target:int -> path option

val link_depth_fraction : path -> int -> float
(** Position of the i-th link of a path, normalised to [0, 1]: 0 at the
    source edge, 1 at the destination edge. *)
