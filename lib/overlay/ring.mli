(** Fixed identifier universe with a mutable alive set.

    Scale worlds keep the full sorted id universe immutable for a run;
    churn only flips alive bits. Universe positions are therefore stable
    dense ints — the node ids of the flat-array simulator core — and
    neighbour lookups are bitset byte-scans. *)

type t

val of_sorted_ids : Id.t array -> t
(** All positions initially alive. @raise Invalid_argument unless the ids
    are strictly ascending. The array is owned by the ring afterwards. *)

val size : t -> int
val alive_count : t -> int
val id : t -> int -> Id.t
val is_alive : t -> int -> bool

val position_of_id : t -> Id.t -> int option

val insertion_point : t -> Id.t -> int
(** First position whose id is [>=] the key (= [size] when none). *)

val set_alive : t -> int -> unit
val set_dead : t -> int -> unit
(** Idempotent. *)

val next_alive_in : t -> int -> int -> int
(** [next_alive_in t lo hi]: first alive position in [lo, hi], or -1. *)

val prev_alive_in : t -> int -> int -> int
(** Last alive position in [lo, hi], or -1. *)

val next_alive_cyclic_from : t -> int -> int
(** First alive position at or after the argument, wrapping; -1 when
    nothing is alive. *)

val next_alive_cyclic : t -> int -> int
(** First alive position strictly after the argument on the ring (itself
    excluded); -1 when no other node is alive. *)

val prev_alive_cyclic : t -> int -> int

val prefix_range : t -> Id.t -> digits_shared:int -> int * int
(** Half-open [lo, hi) slice of positions whose ids share the anchor's
    first [digits_shared] digits. *)
