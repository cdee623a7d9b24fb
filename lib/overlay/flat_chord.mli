(** Chord routing over a {!Ring} universe with no per-node stored state:
    successors and fingers are derived on demand from the sorted universe
    and the alive bitset, so churn maintenance is a bitset flip and routes
    still take O(log n) hops. *)

type t

val create : Ring.t -> t

val owner_of_key : t -> Id.t -> int
(** First alive position at or after the key clockwise (the key's owner),
    or -1 when nothing is alive. *)

val next_hop : t -> here:int -> dest:Id.t -> int option
(** Greedy Chord forwarding: the largest power-of-two finger jump that
    stays within (here, dest], else the successor. [None] on arrival. *)

val route : t -> src:int -> dest:Id.t -> int * int * int64
(** (final position, hop count, FNV digest of the hop sequence). *)
