(** Minimal JSON tree, writer and parser.

    The repo deliberately carries no JSON dependency. Every JSON emitter
    (trace and flight lines, metrics snapshots, provenance dumps, chaos
    transcripts, analysis findings) quotes its strings with {!escape_into}
    or {!quote}, so its output is standard JSON that {!parse} accepts. The
    conformance checker additionally reads its own counterexample files
    back ([check.exe --replay]): {!to_string} output is stable (object
    fields in construction order, floats via ["%.17g"] so every schedule
    timestamp survives exactly) and {!parse} accepts standard JSON with
    ASCII escapes. It is a tool for artifacts, not a general-purpose JSON
    library: deep nesting is bounded, and non-ASCII escapes decode to
    ['?']. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val escape_into : Buffer.t -> string -> unit
(** Append the string as a quoted JSON string literal. Quotes, backslashes
    and control bytes are escaped; every other byte (UTF-8 included) is
    copied as is, so printable ASCII renders exactly as OCaml's [%S]. *)

val quote : string -> string
(** [escape_into] into a fresh string. *)

val to_string : t -> string
(** Compact rendering (no insignificant whitespace). [Float] uses ["%.17g"],
    which round-trips every finite double; non-finite floats render as
    [null]. *)

val to_string_pretty : t -> string
(** Two-space indented rendering for human-facing artifacts. Same value
    encoding as {!to_string}. *)

val parse : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed; trailing garbage
    is an error). Numbers with [.], [e] or [E] parse as [Float], others as
    [Int] (falling back to [Float] on 63-bit overflow). Errors carry a
    character offset. *)

val member : string -> t -> t option
(** Field lookup in an [Obj] (first match); [None] on other constructors. *)

val to_int : t -> int option
(** [Int] payload; also accepts an integral [Float]. *)

val to_float : t -> float option
(** [Float] or [Int] payload. *)

val to_list : t -> t list option
val to_bool : t -> bool option
val string_value : t -> string option
