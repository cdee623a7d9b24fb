(** Findings and suppression directives for the analysis. *)

type t = {
  rule : string;
  file : string;
  line : int;
  message : string;
  trail : string list;  (** call chain, task root first; [[]] when not a path rule *)
}

val compare_finding : t -> t -> int

(** A parsed [(* analysis: allow <rules> — <reason> *)] directive.  It
    covers its comment's lines plus the next line; [allow-file] covers the
    whole file.  The justification is mandatory. *)
type suppression = {
  rules : string list;
  first_line : int;
  last_line : int;
  whole_file : bool;
}

val parse_suppressions :
  file:string -> Lexer.comment list -> suppression list * t list
(** Directives from a module's comments; the second component reports
    directives without a justification (which suppress nothing). *)

val suppressed : suppression list -> rule:string -> line:int -> bool

val render_text : Buffer.t -> t list -> unit
val to_json : t list -> string
