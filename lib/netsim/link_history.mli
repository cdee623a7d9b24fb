(** Record of when each link was bad across a simulation run. The blame
    experiments need the *ground truth* state of arbitrary links at
    arbitrary instants ("was B->C actually good at time t?"), which this
    timeline answers without re-running the failure process.

    Storage is epoch-bucketed: intervals are clipped onto fixed-width
    epochs and kept as sorted, disjoint, eagerly-merged pieces per bucket,
    so resident memory tracks distinct bad spans (not recorded events) and
    whole epochs can be expired once a long run's window of interest has
    moved past them. *)

type t

val create : link_count:int -> t
(** One-hour epochs. *)

val create_with : epoch_length:float -> link_count:int -> t
(** [epoch_length] (seconds) sets the bucket width and the granularity of
    {!expire_before}. *)

val add_interval : t -> link:int -> start:float -> finish:float -> unit
(** Record that [link] was bad during [start, finish). Intervals may
    overlap; queries treat their union as bad time. Zero-length intervals
    are accepted and ignored (they contain no instant). *)

val is_bad_at : t -> link:int -> time:float -> bool

val path_is_good_at : t -> links:int array -> time:float -> bool

val intervals : t -> link:int -> (float * float) list
(** Recorded bad time for a link as sorted, disjoint maximal intervals
    (overlapping or touching recordings are merged). *)

val bad_links_at : t -> time:float -> int list

val bad_fraction_at : t -> time:float -> relevant:int array -> float
(** Fraction of [relevant] links bad at [time]. *)

val total_bad_time : t -> link:int -> horizon:float -> float
(** Lebesgue measure of the union of a link's bad intervals within
    [0, horizon]. *)

val replay :
  t -> engine:Engine.t -> state:Link_state.t -> horizon:float -> unit
(** Schedule set_bad/set_good events on the engine so that [state] tracks
    the timeline while the engine runs (intervals clipped to the horizon).
    Overlapping intervals are merged before scheduling. *)

val expire_before : t -> time:float -> unit
(** Drop every epoch bucket that ends at or before [time] (i.e. whole
    epochs strictly below [time]'s epoch). Queries about instants older
    than the last expiry point may subsequently report "good"; callers use
    this to bound memory once old history is no longer interesting. *)

val resident_pieces : t -> int
(** Number of (start, finish) pieces currently resident across all links —
    the quantity bounded by eager merging and {!expire_before}. *)
