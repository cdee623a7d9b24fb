(** 128-bit overlay identifiers, viewed as [digits] base-[base] characters
    (l = 32 hex digits, v = 16 — the paper's parameters). Identifiers are
    points on a ring of size 2^128; all ring arithmetic is exact. *)

type t

val digits : int
(** Identifier length l in digits (32). *)

val base : int
(** Digit alphabet size v (16). *)

val zero : t
val random : Concilium_util.Prng.t -> t

val of_hex : string -> t
(** Parse exactly [digits] hex characters. @raise Invalid_argument otherwise. *)

val to_hex : t -> string

val of_name : string -> t
(** Deterministic identifier derived by hashing an arbitrary name — how the
    certificate authority assigns random, unforgeable identifiers. *)

val compare : t -> t -> int
(** Numeric order (equivalently lexicographic on the hex form). *)

val equal : t -> t -> bool

val digit : t -> int -> int
(** [digit id i] is the i-th most significant digit, [0 <= i < digits]. *)

val with_digit : t -> int -> int -> t
(** [with_digit id i d] substitutes digit [i] with [d] — the point "p" of the
    secure-routing constraint (paper Section 2). *)

val shared_prefix_length : t -> t -> int
(** Number of leading digits on which the two identifiers agree. *)

val clockwise_distance : t -> t -> t
(** [clockwise_distance a b] = (b - a) mod 2^128. *)

val ring_distance : t -> t -> t
(** min(clockwise, counter-clockwise) distance. *)

val to_float : t -> float
(** Approximate magnitude as a float in [0, 2^128); used for spacing
    statistics and network-size estimation where exactness is not needed. *)

val ring_size_float : float
(** 2^128 as a float. *)

val succ : t -> t
(** Successor on the ring (wraps). *)

val add_power_of_two : t -> int -> t
(** [add_power_of_two id k] = (id + 2^k) mod 2^128, for 0 <= k < 128 — the
    finger targets of a Chord node. *)

val midpoint : t -> t -> t
(** [midpoint a b] = floor((a + b) / 2) over the plain 128-bit integers (no
    ring wrap). For adjacent candidates x <= y, a point p prefers x exactly
    when p <= midpoint x y — the Voronoi boundary used by the incremental
    routing-table maintenance. *)

val compare_substituted : t -> index:int -> digit:int -> t -> int
(** [compare_substituted a ~index ~digit b] compares
    [with_digit a index digit] against [b] without allocating — the
    routing-table sweep's inner-loop comparison. *)

val prefix_bounds : t -> digits_shared:int -> t * t
(** Smallest and largest identifiers sharing the first [digits_shared]
    digits of the argument. *)

val floor_log2 : t -> int
(** Index of the highest set bit (0..127), or -1 for zero — the finger
    level of a Chord hop. *)

val in_clockwise_interval : t -> lo:t -> hi:t -> bool
(** Whether [x] lies in the half-open clockwise interval [lo, hi) of the
    ring (empty when lo = hi). *)
