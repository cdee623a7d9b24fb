(** A Chord overlay (Stoica et al.), the paper's other canonical structured
    overlay, with the Concilium density test generalised to finger tables.

    Each node keeps a successor list (the leaf-set analogue) and 128
    fingers; finger k targets the point id + 2^k and must be the *first*
    node clockwise of it — the unique, verifiable choice analogous to
    Castro's constrained tables.

    The occupancy measure for the density test is the number of non-empty
    finger intervals: interval k contains another node with probability
    1 - (1 - 2^k / 2^128)^(N-1), so occupancy is again Poisson-binomial and
    the Section 3.1 machinery applies unchanged — the "straightforward
    extension to other overlays" the paper claims. *)

module Poisson_binomial = Concilium_stats.Poisson_binomial

type entry = { peer : Id.t; node : int }

type node = {
  index : int;
  id : Id.t;
  successors : entry array;  (** ascending clockwise from the node *)
  fingers : entry option array;  (** 128 slots; [None] = empty interval *)
}

type t

val finger_count : int
(** 128. *)

val build : ?successor_count:int -> Id.t array -> t
(** Default 8 successors. Duplicate ids rejected. *)

val node_count : t -> int
val node : t -> int -> node

val successor_of_key : t -> Id.t -> int
(** The key's owner: the first node clockwise at-or-after the key. *)

val next_hop : t -> from:int -> dest:Id.t -> int option
(** Chord forwarding: the destination's owner if it is the immediate
    successor, otherwise the closest finger/successor preceding [dest].
    [None] when [from] already owns the key. O(log n) via a per-node jump
    table sorted by clockwise distance. *)

val next_hop_reference : t -> from:int -> dest:Id.t -> int option
(** The retained linear-scan implementation; agrees with {!next_hop} on
    every input (property-tested) and exists as its oracle/bench
    baseline. *)

val route : t -> from:int -> dest:Id.t -> int list
(** Hops from [from] to the key's owner.
    @raise Failure on livelock (guarded; cannot occur on well-formed
    rings). *)

val interval_occupancy : node -> int
(** Number of finger intervals [id + 2^k, id + 2^(k+1)) that contain a
    peer — the quantity the generalised density test compares. *)

val mean_route_length : t -> trials:int -> rng:Concilium_util.Prng.t -> float

module Model : sig
  val interval_probability : n:int -> index:int -> float
  (** Probability interval k is non-empty in an N-node ring. *)

  val occupancy_model : n:int -> Poisson_binomial.t
  val expected_occupancy : n:int -> float

  val monte_carlo_occupancy :
    rng:Concilium_util.Prng.t -> n:int -> trials:int -> float array
  (** Sampled occupancy fractions (of the 128 intervals), for validating
      the analytic model exactly as Figure 1 does for Pastry. *)
end
