(** Beta-distribution sampling. The failure injector picks the depth of the
    failing link along a route from Beta(0.9, 0.6), biasing failures towards
    the network edge (paper Section 4.2). *)

val sample : Concilium_util.Prng.t -> alpha:float -> beta:float -> float
(** Draw from Beta(alpha, beta). Uses Johnk's algorithm when both shape
    parameters are <= 1 (the paper's case) and gamma-ratio sampling
    (Marsaglia-Tsang) otherwise. *)
