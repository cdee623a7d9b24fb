(** Fuzzy-logic blame attribution (paper Section 3.4, Equations 2 and 3).

    When A's message through B towards Z goes unacknowledged, A computes
    the probability that the IP path from B to its next hop C was bad, from
    the probe results covering the path's links in the window
    [t - Delta, t + Delta]:

      Pr(B->C bad) = max over links l of
        (sum over p in probes(l) of [p.up*(1-a) + (1-p.up)*a]) / |probes(l)|

    where a is probe accuracy and max is fuzzy-logic OR. Blame for B is the
    complement: Pr(B faulty) = 1 - Pr(B->C bad).

    A judgment is computed in two steps. {!select_votes} picks the votes
    the judge counts per path link: the window, the probers whose
    snapshots the judge holds, and the two anti-gaming defenses (B's own
    results are excluded so B cannot exculpate itself with fabricated
    data; one vote per prober collapses ballot stuffing). The pure kernel
    ({!path_bad_confidence}, {!blame_of_observations}) then folds those
    votes. The protocol's verdicts, its archived evidence, accusation
    re-verification and provenance replay all go through that one
    kernel. *)

module Observation = Concilium_tomography.Observation

type config = {
  accuracy : float;  (** a: probability a probe classifies a link correctly *)
  delta : float;  (** window half-width in seconds (the paper uses 60 s) *)
  guilt_threshold : float;  (** blame above this yields a guilty verdict (the paper studies 0.4) *)
}

val paper_config : config
(** a = 0.9, Delta = 60 s, threshold = 0.4. *)

val link_bad_confidence : accuracy:float -> up_votes:int -> down_votes:int -> float
(** The inner average of Equation 3 for one link: each "up" probe
    contributes (1 - a), each "down" probe contributes a. *)

type selection = {
  votes : Observation.observation list array;
      (** [votes.(i)] are the counted votes on the i-th path link, oldest
          first; a link repeated in the path keeps its own group *)
  excluded : int;  (** visible votes removed as the suspect's own *)
  deduped : int;  (** votes collapsed by one-vote-per-prober *)
}

val select_votes :
  config ->
  observations:Observation.t ->
  links:int array ->
  drop_time:float ->
  visible:(int -> bool) ->
  exclude:int option ->
  one_vote_per_prober:bool ->
  selection
(** The votes one judgment counts on each link of the path: observations
    in [drop_time - delta, drop_time + delta] from probers [visible] to the
    judge, minus those of the prober [exclude] names (the suspect, when
    the self-exculpation defense is on). Under [one_vote_per_prober] each
    prober keeps only its latest vote on the link, at its first-occurrence
    position — a compromised prober flooding duplicate reports into the
    window collapses back to a single voice. *)

val grouped_votes : selection -> (int * bool) list array
(** The selection as (prober, up) votes, the layout the kernel folds. *)

val path_bad_confidence : config -> grouped:(int * bool) list array -> float
(** Equation 3 over a full path: the fuzzy OR (max) across links of the
    per-link confidence, where [grouped.(i)] lists (prober, up) votes for
    the i-th link. Links with no votes are skipped; if no link has any the
    confidence is 0 (nothing suggests the network failed, so the forwarder
    absorbs the blame). The caller has already applied windowing and
    prober exclusion. *)

val blame_of_observations : config -> grouped:(int * bool) list array -> float
(** Equation 2: 1 - {!path_bad_confidence}. *)

type verdict = Guilty | Innocent

val verdict_of_blame : config -> float -> verdict

val pp_verdict : Format.formatter -> verdict -> unit
