(** Fixed-bin histogram over a closed interval; renders the empirical blame
    pdfs of paper Figure 5. *)

type t

val create : lo:float -> hi:float -> bins:int -> t
val add : t -> float -> unit
(** Values outside [lo, hi] are clamped into the boundary bins. *)

val total : t -> int
val counts : t -> int array

val merge_into : into:t -> t -> unit
(** Add [src]'s bin counts into [into]. Counts are integers, so merging
    per-shard histograms in any grouping gives exactly the counts a single
    histogram would have accumulated. Raises [Invalid_argument] when the
    bounds or bin counts differ. *)

val bin_centers : t -> float array

val pdf : t -> float array
(** Densities normalised so the histogram integrates to 1 (each count divided
    by total * bin_width). All-zero if no samples were added. *)
