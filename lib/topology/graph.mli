(** Undirected router-level graph in compressed sparse row form.

    Nodes and links are dense integer ids; links are undirected and
    deduplicated. The representation is immutable once built, so routes,
    trees and coverage sets computed from it stay valid. *)

type t

module Builder : sig
  type b

  val create : int -> b
  (** [create n] starts a graph with [n] nodes and no links. *)

  val add_node : b -> int
  (** Append a node, returning its id. *)

  val add_link : b -> int -> int -> unit
  (** Add an undirected link. Self-loops and duplicate links are ignored. *)

end

val build : Builder.b -> t

val node_count : t -> int
val link_count : t -> int
val degree : t -> int -> int

val iter_neighbors : t -> int -> (neighbor:int -> link:int -> unit) -> unit
(** Visit a node's incident links in a fixed deterministic order. *)

val link_endpoints : t -> int -> int * int
(** Endpoints of a link, smaller node id first. *)

val link_between : t -> int -> int -> int option
(** Link id connecting two nodes, if any. *)

val end_hosts : t -> int array
(** Nodes with degree exactly 1 — the paper's definition of an end host. *)

val is_connected : t -> bool
