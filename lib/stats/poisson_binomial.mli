(** Poisson-binomial occupancy model (paper Section 3.1).

    A jump table's occupancy is a sum of independent, non-identical Bernoulli
    variables (one per slot). Exact evaluation is intractable at table sizes
    of interest, so — following the paper — we use the normal approximation
    whose parameters are derived from the per-slot probabilities:

    mu      = mean of the slot probabilities
    sigma^2 = their population variance
    mu_phi  = l*v*mu                          (mean occupancy count)
    sig^2_phi = l*v*mu*(1-mu) - l*v*sigma^2   (true Poisson-binomial variance)

    The identity in the last line holds because
    sum p_i (1 - p_i) = n*mu - n*(sigma^2 + mu^2) = n*mu*(1-mu) - n*sigma^2. *)

type t = {
  slot_count : int;  (** l*v, total number of slots *)
  mu : float;  (** mean per-slot fill probability *)
  sigma_sq : float;  (** population variance of fill probabilities *)
  mu_phi : float;  (** approximate mean occupancy count *)
  sigma_phi : float;  (** approximate std-dev of occupancy count *)
}

val of_probabilities : float array -> t
(** Build the model from per-slot fill probabilities. *)

val cdf : t -> float -> float
(** Normal-approximation cdf of the occupancy count. *)

val pmf_with_continuity : t -> int -> float
(** Pr(occupancy = d) approximated as phi(d + 1/2) - phi(d - 1/2), the
    continuity-corrected band the paper uses inside its FP/FN sums. *)
