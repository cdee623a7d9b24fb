(** Canary mutations for [--inject-bug]: synthetic source files that must
    each trip a named rule, proving the detectors catch real races, layer
    violations, dead library code and per-file rule hits. *)

type canary = {
  c_name : string;
  c_path : string;  (** virtual path, placed to land in the right library *)
  c_rule : string;  (** the rule the canary must trigger *)
  c_source : string;
}

val canaries : canary list
val names : string list
val find : string -> canary option
