(** Comment- and string-literal-aware scanner over OCaml source.

    The per-file rules are textual; this module makes them sound by
    blanking out everything that is not code (comments, ["..."] strings,
    [{tag|...|tag}] quoted strings and character literals) while preserving
    the line/column structure, and by collecting comments so suppression
    directives such as [(* analysis: allow rule — reason *)] can be
    honoured. *)

type comment = {
  text : string;       (** comment body, including the [(*]/[*)] delimiters *)
  start_line : int;    (** 1-based line on which the comment opens *)
  end_line : int;      (** 1-based line on which the comment closes *)
}

type scrubbed = {
  code_lines : string array;  (** source with non-code blanked to spaces *)
  raw_lines : string array;   (** untouched source lines *)
  comments : comment list;    (** all comments, in source order *)
}

val scrub : string -> scrubbed
(** [scrub source] splits [source] into lines, blanking comments and
    literals.  Nested comments and strings inside comments follow OCaml's
    lexical conventions. *)
