(** Orchestration: gather sources, run the per-file rules and the
    whole-program passes, filter suppressions, render reports. *)

type report = {
  r_findings : Finding.t list;  (** unsuppressed, sorted *)
  r_suppressed : int;
  r_metrics : Concilium_obs.Metrics.t;
  r_program : Callgraph.program;
  r_effects : Effects.t;
  r_edges : (Callgraph.key * Callgraph.key) list;  (** call edges, for dumps *)
}

val analyze_sources :
  layers_path:string ->
  layers_text:string ->
  dunes:(string * string) list ->
  files:(string * string) list ->
  report
(** Pure over in-memory sources ([.ml] and [.mli] in [files]); the tests
    drive this with fixtures.  Every file gets the per-file rules; the
    [.ml] files also feed the call graph, the race detector and the
    layering checker. *)

val analyze_tree :
  layers_path:string ->
  inject:Inject.canary list ->
  paths:string list ->
  (report, string) result
(** Walk the given directories for [.ml], [.mli] and [dune] files
    (skipping dot and underscore entries), check [.mli] coverage of the
    walked [lib/] modules, append any injected canaries, and analyze. *)

val summary_line : report -> string
val render_text : report -> string
val render_json : report -> string
val callgraph_dot : report -> string
val callgraph_jsonl : report -> string
val effects_jsonl : report -> string
