module World = Concilium_core.World
module Blame = Concilium_core.Blame

(** The Figure 5/6 experiment world: the paper's 2-virtual-hour failure
    process plus the abstracted probe model of Section 4.3 ("hosts can
    identify whether a link was up or down with 90% accuracy").

    Each overlay node probes its tree on the paper's lightweight schedule
    (inter-arrival uniform in [0, max_probe_time]); a probe observes every
    link of the prober's tree, classifying it correctly with probability
    [accuracy]. A judgment (A, B, C, t) gathers the observations that A
    actually holds — those from A itself and A's routing peers (the trees
    of F_A), excluding B's own — within [t - Delta, t + Delta] over the
    B->C route, and evaluates Equations 2-3. Probe noise is a
    deterministic function of (prober, link, probe index), so any third
    party re-deriving a blame value gets the identical answer.

    Colluders (Figure 5(b)) strategically invert their contributions: they
    report "up" to frame an innocent suspect and "down" to shield a fellow
    colluder. *)

module Prng = Concilium_util.Prng
module Histogram = Concilium_stats.Histogram

type config = {
  duration : float;  (** virtual seconds (paper: 7200) *)
  max_probe_time : float;  (** paper: 120 s *)
  blame : Blame.config;
      (** probe accuracy, window half-width and guilt threshold
          (paper: {!Blame.paper_config}) *)
  colluding_fraction : float;  (** 0 = all honest; paper also studies 0.2 *)
  corroboration : float;
      (** probability a colluder lies on any given observation (1.0 — the
          default, and the paper's Figure 5(b) setting — means every
          malicious vote is strategically inverted). The decision is a
          deterministic hash of (prober, link, probe index, seed), salted
          independently from probe noise, so at 1.0 the results are
          byte-identical to a build without the knob and at any value a
          verifier re-derives the same lie pattern. *)
  exclude_suspect_probes : bool;
      (** the paper's rule (Section 3.4): the judged node's own probe
          results never enter Equation 3. Settable to [false] only for the
          ablation that demonstrates why the rule exists. *)
  global_visibility : bool;
      (** [false] (the default): a judge sees only probes from its own
          forest F_A, i.e. itself and its routing peers. [true]: every
          snapshot reaches every judge — an upper bound on dissemination. *)
  seed : int64;
}

val paper_config : colluding_fraction:float -> seed:int64 -> config

type t

val create : world:World.t -> config -> t
(** Runs the failure process and lays out every node's probe schedule. *)

val config : t -> config
val mean_bad_fraction : t -> float
(** Time-averaged fraction of route-relevant links bad (target: 5%). *)

type judgment = {
  judge : int;  (** A *)
  suspect : int;  (** B *)
  next_hop : int;  (** C *)
  time : float;
  path_actually_good : bool;
  blame : float;
  votes_used : int;
}

val sample_judgment : t -> rng:Prng.t -> judgment option
(** One random (A, B, C, t) triple judged; [None] when the draw was
    degenerate (missing path). *)

type result = {
  faulty_pdf : Histogram.t;  (** blame given the suspect truly dropped it *)
  nonfaulty_pdf : Histogram.t;  (** blame given a bad link explains the drop *)
  p_good : float;  (** innocent suspects receiving a guilty verdict *)
  p_faulty : float;  (** faulty suspects receiving a guilty verdict *)
  faulty_samples : int;
  nonfaulty_samples : int;
}

val run : ?pool:Concilium_util.Pool.t -> t -> samples:int -> bins:int -> result
(** Draw judgments until [samples] of them landed in a population. In a
    collusion scenario the faulty population is restricted to malicious
    suspects (the paper's framing: colluders are the droppers). The draws
    are split over shards — the count a pure function of [samples], never
    of the pool size — each with a pre-split stream and sample quota, so
    the result is identical for any domain count. *)

val pdf_table : title:string -> result -> Output.table

val summary_table : result -> result option -> Output.table
(** Headline verdict rates, honest and (optionally) collusion scenario. *)
