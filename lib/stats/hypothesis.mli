(** Simple hypothesis tests. The tomographic feedback-verification step
    (paper Section 3.3, after Arya et al.) checks that a leaf's
    acknowledgment pattern is statistically consistent with its siblings';
    leaves that suppress acks show an excess marginal loss that these tests
    flag. *)

val one_proportion_z : successes:int -> trials:int -> p0:float -> float
(** z statistic for an observed proportion against a hypothesised p0. *)
