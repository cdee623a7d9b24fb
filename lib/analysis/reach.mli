(** Reachability of library definitions from the tree's entry points. *)

val analyze :
  consumer:(string -> bool) -> allowed:(Finding.t -> bool) -> Effects.t -> Finding.t list
(** [unreachable] and [test-only] findings, one per library definition no
    entry point reaches.  Roots are every definition of a module under
    [bin/], [bench/] or [examples/], or of a file [consumer] accepts (a
    separate dune project read for roots only), plus library initializers.
    A finding [allowed] accepts is still reported (the driver counts it as
    suppressed), but what its definition calls is kept.  Empty when the
    scan holds no root. *)
