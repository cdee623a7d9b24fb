(** Descriptive statistics over float samples. *)

type summary = {
  count : int;
  mean : float;
  variance : float;  (** population variance *)
  stddev : float;
  minimum : float;
  maximum : float;
}

val summarize : float array -> summary
(** @raise Invalid_argument on an empty array. *)

val mean : float array -> float
val stddev : float array -> float
