(** Fixed-capacity bitset over integers [0, capacity).

    Used for link-coverage sets in the tomography experiments, where unions
    and cardinalities over hundreds of thousands of link ids must be cheap. *)

type t

val create : int -> t
(** [create n] is an empty set with capacity [n] (members range over
    [0, n-1]). *)

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val cardinal : t -> int

val next_member : t -> int -> int
(** [next_member t i] is the smallest member [>= i], or [-1] when none.
    Scans bytewise, so on dense sets the expected cost is O(1). *)

val prev_member : t -> int -> int
(** [prev_member t i] is the largest member [<= i], or [-1] when none. *)

val iter : (int -> unit) -> t -> unit
