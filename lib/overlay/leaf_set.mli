(** Pastry leaf sets: the [half_size] numerically closest peers on each side
    of the owner's identifier. Leaf sets anchor the last hop of overlay
    routing, and their inter-identifier spacing drives both Castro's density
    check and the Mahajan network-size estimate (paper Sections 2 and 3.1). *)

type t

val build : owner:Id.t -> sorted_ids:Id.t array -> half_size:int -> t
(** [sorted_ids] is the ascending array of all identifiers in the overlay
    (the owner may appear; it is skipped). If fewer than [2 * half_size]
    other identifiers exist, the leaf set simply holds everyone. *)

val members : t -> Id.t list
val size : t -> int

val clockwise : t -> Id.t array
val counter_clockwise : t -> Id.t array

val mean_spacing : t -> float
(** Average inter-identifier spacing across the leaf set's span of the ring
    (float approximation; spacings are astronomically large). *)

val estimate_network_size : t -> float
(** Mahajan et al.: ring size divided by mean spacing. *)

val covers : t -> Id.t -> bool
(** Whether [dest] falls within the leaf set's span, i.e. routing can finish
    with a direct leaf hop. *)

val closest_member : t -> Id.t -> Id.t
(** Member (or the owner itself) with minimal ring distance to [dest]. *)

val spacing_check : gamma:float -> local:t -> peer:t -> [ `Acceptable | `Suspicious ]
(** Castro's leaf-set density test: the peer's advertised leaf set is
    suspicious when its mean spacing exceeds [gamma] times the local one
    (i.e. it is too sparse, hiding honest nodes). *)
