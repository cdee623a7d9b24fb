(** Analytic model of jump-table occupancy (paper Section 3.1, Equation 1).

    Slot (i, j) of a table is filled iff at least one of the other N-1
    uniformly random identifiers carries the required (i+1)-digit prefix, so

      Pr(entry filled in row i) = 1 - [1 - (1/v)^(i+1)]^(N-1).

    Occupancy is then Poisson-binomial across the l*v slots, approximated by
    a normal distribution ({!Concilium_stats.Poisson_binomial}). *)

val fill_probability : n:int -> row:int -> float
(** Equation 1 for 0-indexed [row]. Computed in log space so deep rows do
    not underflow. *)

val slot_probabilities : n:int -> float array
(** Per-slot fill probabilities, length {!Id.digits} * {!Id.base}
    (identical within a row). *)

val model : n:int -> Concilium_stats.Poisson_binomial.t
(** Occupancy-count distribution for an overlay of [n] nodes. *)

val expected_occupancy : n:int -> float
(** Mean number of filled slots, the paper's mu_phi. *)

val expected_routing_entries : n:int -> leaf_set_size:int -> float
(** mu_phi + leaf-set size: the "77 entries in a 100,000-node overlay" of
    Section 4.4. *)

val monte_carlo_occupancy :
  rng:Concilium_util.Prng.t -> n:int -> trials:int -> float array
(** Sampled occupancy *fractions* from [trials] independent overlays: each
    trial draws N random identifiers, picks one as the owner, and counts
    the secure-table slots whose prefix range holds another node. Used to validate the analytic model (Figure 1). *)
