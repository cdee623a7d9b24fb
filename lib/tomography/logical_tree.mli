(** Logical (reduced) probe trees.

    Tomographic inference cannot localise loss within an unbranched chain of
    physical links — every chain member affects the same set of leaves — so
    inference runs on the logical tree in which each maximal chain is
    collapsed into one logical link. Logical node 0 is the root; every
    other logical node is a branching point or a leaf of the physical tree. *)

type t

val of_tree : Tree.t -> t

val physical : t -> Tree.t
val node_count : t -> int

val parent : t -> int -> int
(** Logical parent, -1 for the root. *)

val children : t -> int -> int array

val leaves : t -> int array
(** Logical leaves, in the same order as the physical tree's leaves. *)

val chain : t -> int -> int array
(** Physical link ids collapsed into the logical link above a node (root ->
    empty). Ordered top-down. *)

val leaf_count : t -> int

val descendant_leaves : t -> int -> int array
(** Indices into {!leaves} of the leaves at or below a logical node. *)
