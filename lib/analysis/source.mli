(** Lightweight def/use extraction over OCaml source: top-level definitions
    with parameter lists and scrubbed body text, [open]s, module aliases,
    and on-demand argument/closure scanning.  Not a parser — just enough
    structure for the whole-program analysis. *)

val is_upper : char -> bool
val is_lower : char -> bool
val is_ident_char : char -> bool

val read_ident : string -> int -> (string * int) option
(** The identifier starting at the given position, with the position after
    it; [None] when none starts there. *)

val idents_of_text : string -> string list
(** All non-keyword identifiers in the text, in order. *)

type param = {
  p_label : string option;
  p_optional : bool;
  p_names : string list;  (** identifiers bound by the parameter pattern *)
}

val pattern_binders : string -> string list
(** Identifiers bound by a pattern fragment (idents after a top-level [:]
    belong to a type and are excluded). *)

type def = {
  d_name : string;  (** ["run"], or ["Window.add"] inside a nested module *)
  d_params : param list;
  d_body : string;  (** scrubbed item text with the binding header blanked *)
  d_line : int;  (** 1-based line of the [let] *)
  d_is_value : bool;  (** no parameters: a top-level value binding *)
}

type module_info = {
  m_path : string;
  m_library : string;  (** ["concilium_util"], ["bin"], ... *)
  m_name : string;  (** ["Pool"] *)
  m_opens : string list;
  m_aliases : (string * string list) list;  (** local name -> path segments *)
  m_defs : def list;
  m_code : string array;  (** scrubbed code lines *)
}

val library_of_path : string -> string
(** [lib/<dir>/x.ml -> concilium_<dir>]; [bin/x.ml -> bin]. *)

val parse : path:string -> Lexer.scrubbed -> module_info
(** Definitions, opens and aliases of one scrubbed [.ml]. *)

(** One argument at a call site: its label, raw text, leading identifier
    when it is an identifier path, and identifiers used in [.(...)]
    indexing. *)
type atom = {
  a_label : string option;
  a_text : string;
  a_head : string option;
  a_path : string list;
  a_index_idents : string list;
}

val closure_atom : atom -> bool
(** Whether the atom is a [fun]/[function] literal. *)

val parse_atoms : ?limit:int -> string -> int -> atom list
(** Up to [limit] argument atoms from the given position; stops at the
    first token that cannot open an atom. *)

val split_closure : string -> (string list * string) option
(** Binder names and body text of a [fun ... -> ...] atom. *)

type binding_kind =
  | Created  (** [let x = ref ... / Hashtbl.create ... / { ... }] *)
  | Alias of string  (** [let x = y...]: chase [y]'s class *)
  | Indexed of string * string list
      (** [let x = y.(i)]: chase [y], but [i] may prove [x] a per-task slot *)
  | Opaque  (** bound with an unclassifiable right-hand side *)

val local_bindings : string -> (string * binding_kind) list
(** [let]-bound and [fun]-bound names in a body, with a coarse kind. *)
