(** Special functions needed by the distribution code. *)

val log_gamma : float -> float
(** Natural log of the gamma function, Lanczos approximation (g = 7, n = 9).
    Accurate to ~1e-13 for positive arguments. *)

val log_binomial_coefficient : int -> int -> float
(** [log_binomial_coefficient n k] = log (n choose k). Returns [neg_infinity]
    when [k < 0] or [k > n]. *)

val erf : float -> float
(** Error function, accurate to ~1.2e-7 (Abramowitz & Stegun 7.1.26 with
    symmetry). *)
