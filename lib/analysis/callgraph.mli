(** Inter-module reference resolution and call-graph construction. *)

type key = { k_lib : string; k_mod : string; k_fn : string }

val key_compare : key -> key -> int
val key_to_string : key -> string

val display : key -> string
(** ["Mod.fn"] — the short human-facing form. *)

type call = { c_callee : key; c_line : int; c_atoms : Source.atom list }

(** A cross-library module reference; raw material of the layering check. *)
type xref = { x_from : string; x_to : string; x_file : string; x_line : int; x_token : string }

type program = {
  p_modules : Source.module_info list;  (** sorted by path *)
  p_by_lib : (string, (string, Source.module_info) Hashtbl.t) Hashtbl.t;
  p_defs : (string, Source.def * Source.module_info) Hashtbl.t;
  p_nested : (string, unit) Hashtbl.t;  (** each nested module path, as a key *)
}

val build : Source.module_info list -> program
val find_def : program -> key -> (Source.def * Source.module_info) option

type resolution =
  | Value of key
  | Module_ref of string * string  (** library, module: no value component *)
  | External

val scope_of_def : Source.def -> string list
(** The nested-module path a definition lives in: [["Model"]] for
    ["Model.occupancy_model"]. *)

val resolve : ?scope:string list -> program -> Source.module_info -> string list -> resolution
(** Resolve a dotted path (head first) from nested-module path [scope] of a
    module: aliases, then the module's own nested modules (innermost
    first), then wrapped library roots, then same-library siblings. *)

val line_of_pos : string -> int -> int -> int
(** Line of a character position in a body whose first line is the given
    source line. *)

val scan_body :
  ?scope:string list ->
  program ->
  Source.module_info ->
  from_line:int ->
  locals:string list ->
  string ->
  call list * xref list
(** All resolved calls and cross-library references in a scrubbed body,
    seen from nested-module path [scope]; [locals] names identifiers that
    shadow module definitions.  A use of an operator the module defines
    counts as a call. *)

val dot : program -> edges:(key * key) list -> string
val jsonl : edges:(key * key) list -> string
