(** The rule catalog and the per-file checks: textual determinism,
    partiality and hygiene rules over scrubbed source, the hardened-flags
    check on dune files, and [.mli] coverage of [lib/].  Each check returns
    every hit; the driver filters them through the suppression directives.
    See DESIGN.md, "Determinism policy & static analysis". *)

type family =
  | Determinism
  | Polymorphic_compare
  | Partiality
  | Hygiene
  | Pool_safety
  | Layering
  | Reachability

val family_to_string : family -> string

val check_source : path:string -> Lexer.scrubbed -> Finding.t list
(** The line rules and the windowed hashtbl-order rule over one
    [.ml]/[.mli].  [path] scopes the rules and names the findings, so
    tests can pass synthetic paths such as ["lib/fake.ml"]. *)

val check_dune : path:string -> string -> Finding.t list
(** A [library]/[executable]/[test] stanza without [-warn-error] flags. *)

val missing_mli : string list -> Finding.t list
(** Every [.ml] under a [lib] directory whose [.mli] is not in the list. *)

val catalog : (string * family * string) list
(** Every rule id the analysis reports, per-file and whole-program, with
    its family and one-line description. *)
