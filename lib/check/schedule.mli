(** Randomized lockstep schedules.

    A schedule is a concrete, replayable sequence of operations against the
    protocol's stateful pieces — verdict windows, the accusation DHT, the
    rebuttal archives — plus the sizing parameters of the world they run
    in. Schedules are {e data}: every operand is an index or a float, so a
    schedule serializes to JSON ({!encode}/{!decode}) and any sub-sequence
    of its operations is itself a valid schedule (which is what lets
    {!Shrink.ddmin} minimize counterexamples by deleting operations).

    {!generate} draws the operation stream from the chaos DSL: a fault plan
    is sampled with {!Concilium_netsim.Chaos.sample} and each fault family
    is translated into the protocol-level operations it would provoke
    (flaps become verdicts, crashes toggle liveness, replica losses drop
    stores, control duplication re-delivers puts...). On top of that the
    generator deliberately manufactures boundary cases: window expiries
    whose horizon equals a recorded drop time exactly, and archive defenses
    at exactly [±delta] around an archived verdict — the edges where
    off-by-one bugs live. *)

type op =
  | Win_record of { win : int; guilty : bool; blame : float; drop_time : float }
  | Win_expire of { win : int; before : float }
  | Dht_put of { from_node : int; accuser : int; accused : int; drop_time : float; copies : int }
  | Dht_get of { from_node : int; accused : int }
  | Dht_crash of { node : int }
  | Dht_revive of { node : int }
  | Dht_drop_replica of { node : int }
  | Arch_record of { owner : int; accused : int; drop_time : float }
  | Arch_defend of { owner : int; accuser : int; drop_time : float }

type t = {
  seed : int;  (** generator seed, kept for provenance in artifacts *)
  nodes : int;
  window_size : int;
  m : int;  (** guilty-verdict threshold for accusation escalation *)
  replication : int;
  ops : op list;
}

val generate : seed:int -> t
(** Deterministic: equal seeds give equal schedules. Node count, window
    sizing and replication are drawn from small ranges; the operation
    stream mixes a baseline tick of routine operations with the
    translated chaos plan, in event-time order. *)

val with_ops : t -> op list -> t
(** Same world, different operation sequence (used by the shrinker). *)

val op_count : t -> int

val encode : t -> Concilium_util.Json.t
val decode : Concilium_util.Json.t -> (t, string) result
