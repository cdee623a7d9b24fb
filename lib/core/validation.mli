(** Validation of peer-advertised routing state (paper Sections 3.1-3.2).

    When a node receives a peer's tomographic snapshot it checks, in order:
    the snapshot's own signature; every entry's freshness stamp (signature,
    holder, recency) against inflation attacks; the jump-table occupancy
    density test against suppression of honest nodes; and Castro's leaf-set
    spacing test. Any failure may trigger a fault accusation against the
    advertiser; the snapshot is archived regardless. *)

module Id = Concilium_overlay.Id
module Leaf_set = Concilium_overlay.Leaf_set
module Freshness = Concilium_overlay.Freshness
module Snapshot = Concilium_tomography.Snapshot
module Pki = Concilium_crypto.Pki

type advertisement = {
  snapshot : Snapshot.t;
  jump_table_occupancy : int;  (** filled slots the peer claims *)
  leaf_set : Leaf_set.t;  (** the peer's advertised leaf set *)
}

type config = {
  gamma_jump : float;  (** slack for the jump-table density test *)
  gamma_leaf : float;  (** slack for Castro's leaf-set spacing test *)
  max_stamp_age : float;  (** seconds before a freshness stamp goes stale *)
}

val default_config : config
(** gamma 1.1 / 1.5, 10-minute stamp lifetime. *)

type failure =
  | Bad_snapshot_signature
  | Stale_or_invalid_stamp of Id.t  (** the offending entry's peer *)
  | Sparse_jump_table of { local : int; advertised : int }
  | Sparse_leaf_set of { local_spacing : float; advertised_spacing : float }

type local_view = {
  own_jump_occupancy : int;
  own_leaf_set : Leaf_set.t;
}

val check :
  Pki.t -> now:float -> config -> local:local_view -> advertisement -> failure list
(** All failures found, in checking order; [] means the advertisement is
    accepted. *)
