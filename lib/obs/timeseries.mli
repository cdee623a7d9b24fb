(** Epoch-bucketed time series of metrics snapshots for long-horizon runs.

    A series is driven at a fixed cadence in {e virtual} time: the caller
    (an engine-scheduled sampler, never a wall clock) calls {!sample} with
    the current simulated time and the live registry; the snapshot is
    deep-copied into epoch [floor (time / cadence)].

    Determinism: per-shard series recorded at the same cadence merge by
    epoch, folding each epoch's snapshots with {!Metrics.merge} in shard
    order, and {!jsonl} renders epochs ascending with sorted metric
    names — byte-identical output for any [--domains N], the same
    contract as {!Collector.merge}. *)

type t

val create : cadence:float -> t
(** [cadence] is the epoch width in virtual seconds; must be positive. *)

val cadence : t -> float

val record : t -> epoch:int -> Metrics.t -> unit
(** Snapshot the registry (deep copy) into the given epoch. *)

val sample : t -> time:float -> Metrics.t -> unit
(** {!record} into epoch [floor (time / cadence)]. *)

val samples : t -> (int * Metrics.t) list
(** Snapshots in recording order. *)

val merge : t array -> t
(** Group every shard's snapshots by epoch and fold each group with
    {!Metrics.merge} in shard order (then recording order within a
    shard); the result holds one snapshot per epoch, ascending.
    @raise Invalid_argument on zero shards or mismatched cadences. *)

val jsonl : t -> string
(** One line per snapshot in {!samples} order:
    [{"epoch": k, "time": k*cadence, "counters": ..., "gauges": ...,
    "histograms": ...}]. *)
