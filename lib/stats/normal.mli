(** The normal distribution. The paper's jump-table occupancy model and
    accusation analysis both lean on the normal cdf (phi in Section 3.1). *)

val cdf : mu:float -> sigma:float -> float -> float

val standard_cdf : float -> float
val standard_quantile : float -> float
