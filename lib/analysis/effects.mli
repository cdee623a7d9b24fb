(** Transitive effect inference over the call graph. *)

type flag =
  | Reads_mutable
  | Writes_arg  (** writes through caller-provided state *)
  | Writes_global  (** writes a module-level value binding *)
  | Io
  | Randomness
  | Ambient_randomness  (** draws from process-global or module-level randomness *)
  | Domain_primitive

val flag_name : flag -> string
val has : int -> flag -> bool
val flags_of_mask : int -> flag list

type origin =
  | Intrinsic of int * string  (** line, note *)
  | Via of Callgraph.key * int  (** callee the flag arrived through, call line *)

type summary = {
  s_key : Callgraph.key;
  s_def : Source.def;
  s_module : Source.module_info;
  s_calls : Callgraph.call list;  (** empty for the trusted runtime *)
  s_refs : Callgraph.key list;  (** every definition the body names, trusted or not *)
  s_locals : (string * Source.binding_kind) list;
  s_params : string list;
  mutable s_mask : int;
  mutable s_origins : (flag * origin) list;  (** first witness per flag *)
  mutable s_prng_params : string list;  (** parameters drawn from as PRNGs *)
  mutable s_write_params : string list;  (** parameters written through *)
}

type t = {
  e_table : (string, summary) Hashtbl.t;
  e_order : summary list;  (** sorted by key *)
  e_calls_resolved : int;
}

val find : t -> Callgraph.key -> summary option

val trusted : Callgraph.key -> bool
(** The deterministic runtime ([Concilium_util.Prng]/[Pool]): modelled at
    call sites, never propagated from. *)

val sanctioned_sink : Callgraph.key -> bool
(** [concilium_obs]: the one place a pooled task may write caller-visible
    state (the per-shard collector). *)

(** Classification of an identifier against a definition's scope. *)
type cls =
  | Local_created
  | Local_opaque
  | Param of string
  | Global_value
  | Global_fn
  | Unresolved

val classify :
  locals:(string * Source.binding_kind) list ->
  params:string list ->
  m:Source.module_info ->
  string ->
  cls

type write = { w_target : string; w_line : int; w_index : string list; w_note : string }

val scan_writes : from_line:int -> string -> write list
(** Textual writes in a scrubbed body: [:=]/[<-] assignments, [incr]/[decr]
    and stdlib mutator calls. *)

val io_re : Str.regexp
val domain_re : Str.regexp
val ambient_re : Str.regexp

val scan_first : Str.regexp -> from_line:int -> string -> (int * string) option
(** First match as (line, matched text), if any. *)

val is_prng_draw : Callgraph.key -> bool
(** A [Prng] call that mutates its generator (everything except creation
    from a seed). *)

val match_args : Source.atom list -> Source.param list -> (Source.atom * string list) list
(** Pair call-site atoms with the callee parameter names they feed:
    labelled atoms by label, positional atoms in order. *)

val compute : Callgraph.program -> t

val trail : t -> summary -> flag -> string list
(** The chain of calls along which the flag reached the summary, ending at
    the intrinsic witness line. *)

val jsonl : t -> string
