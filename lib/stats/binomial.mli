(** The binomial distribution. Concilium's formal-accusation error analysis
    (paper Section 4.3) models the number of guilty verdicts in a w-slot
    sliding window as Binomial(w, p). *)

val log_pmf : n:int -> p:float -> int -> float
val pmf : n:int -> p:float -> int -> float

val cdf : n:int -> p:float -> int -> float
(** [cdf ~n ~p k] = Pr(X <= k). *)

val survival : n:int -> p:float -> int -> float
(** [survival ~n ~p k] = Pr(X >= k). This is the paper's false-positive
    expression with [k = m], and [cdf ~n ~p (m-1)] is its false negative. *)
