(** Host availability churn.

    The paper's evaluation deliberately holds membership fixed ("we did not
    model fluctuating machine availability since we wanted to focus on the
    fundamental properties of our fault inference algorithm", Section 4.2).
    This module supplies the missing dimension as an extension: each host
    alternates exponentially-distributed online and offline periods, giving
    a timeline that answers "was H up at time t?". Downstream uses include
    stress-testing freshness stamps (a stale entry really does mean a
    departed peer) and measuring how natural churn inflates the density
    test's suppression-like skew. *)

type config = {
  mean_uptime : float;  (** seconds *)
  mean_downtime : float;
  initial_online_fraction : float;
}

val default_config : config
(** 2-hour mean sessions, 10-minute absences, 95% initially online. *)

type t

val generate :
  rng:Concilium_util.Prng.t -> config:config -> hosts:int -> duration:float -> t

val is_online : t -> host:int -> time:float -> bool
val online_fraction : t -> time:float -> float
val transitions : t -> host:int -> (float * bool) list
(** Chronological (time, became-online) events within the horizon. *)

val mean_online_fraction : t -> duration:float -> samples:int -> float

val toggle_count : t -> int
(** Total toggles across all hosts (the timeline's storage footprint). *)

val initially_online : t -> host:int -> bool

val events : t -> (float * int) array
(** Every toggle as one chronological (time, host) stream, ties broken by
    host index — the churn feed of the scale driver. *)
