(** Maximum-likelihood link-loss inference on logical trees — the
    MINC/Duffield estimator the paper's heavyweight tomography uses.

    Given per-round ack vectors, compute for each logical node k the
    empirical probability gamma_k that some leaf below k acked a round.
    The MLE of A_k — the probability a probe reaches k — is the unique root
    in (gamma_k, 1] of

      1 - gamma_k / A = prod over children j of (1 - gamma_j / A),

    solved here by bisection; A is 1 at the root (the source) and gamma at
    the leaves. The success rate of the logical link above k is then
    A_k / A_parent(k). Inference granularity is the logical link: loss
    inside an unbranched physical chain cannot be localised further by any
    tomographic method. *)

type estimate = {
  logical : Logical_tree.t;
  rounds : int;
  gamma : float array;  (** per logical node: empirical subtree-ack rate *)
  path_success : float array;  (** A_k per logical node *)
  link_success : float array;  (** success of the logical link above each node; 1.0 at the root *)
}

val infer : Logical_tree.t -> acked:bool array array -> estimate
(** [acked] is round-major: [acked.(r).(leaf_index)]. Computes gamma with a
    single bottom-up ack-propagation sweep per round — O(rounds * nodes).
    @raise Invalid_argument if no rounds are given or a vector's width
    disagrees with the tree's leaf count. *)

val infer_reference : Logical_tree.t -> acked:bool array array -> estimate
(** The original O(rounds * nodes * leaves) implementation (a per-node
    [Array.exists] over descendant leaf sets), retained as the oracle that
    tests and benchmarks check {!infer} against. Produces identical
    estimates. *)

val link_loss : estimate -> int -> float
(** [1 - link_success] for a logical node. *)

val infer_from_rounds :
  ?trace:Concilium_obs.Trace.t ->
  ?parent:Concilium_obs.Trace.span ->
  ?time:float ->
  Logical_tree.t ->
  Probing.round array ->
  estimate
(** Convenience: {!infer} over {!Probing.acked_matrix}. When [trace] is a
    recording sink the inference is wrapped in a ["minc.solve"] span
    (category ["tomography"]) stamped at [time] (default 0), nested under
    [parent] if given; with the default noop sink the wrapper costs one
    branch. *)
