(** Binary searches over sorted arrays. *)

val lower_bound : ('a -> 'a -> int) -> 'a array -> 'a -> int
(** [lower_bound compare a x] is the first index whose element is [>= x]
    under [compare], or [Array.length a] if all elements are smaller. The
    array must be sorted ascending under [compare]. *)

val upper_bound : ('a -> 'a -> int) -> 'a array -> 'a -> int
(** First index whose element is strictly [> x]. *)
