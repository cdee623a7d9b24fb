module Id = Concilium_overlay.Id
module Leaf_set = Concilium_overlay.Leaf_set
module Density_test = Concilium_overlay.Density_test
module Freshness = Concilium_overlay.Freshness
module Snapshot = Concilium_tomography.Snapshot
module Signed = Concilium_crypto.Signed
module Pki = Concilium_crypto.Pki

type advertisement = {
  snapshot : Snapshot.t;
  jump_table_occupancy : int;
  leaf_set : Leaf_set.t;
}

type config = { gamma_jump : float; gamma_leaf : float; max_stamp_age : float }

let default_config = { gamma_jump = 1.1; gamma_leaf = 1.5; max_stamp_age = 600. }

type failure =
  | Bad_snapshot_signature
  | Stale_or_invalid_stamp of Id.t
  | Sparse_jump_table of { local : int; advertised : int }
  | Sparse_leaf_set of { local_spacing : float; advertised_spacing : float }

type local_view = { own_jump_occupancy : int; own_leaf_set : Leaf_set.t }

let check pki ~now config ~local advertisement =
  let failures = ref [] in
  let push f = failures := f :: !failures in
  if not (Snapshot.verify pki advertisement.snapshot) then push Bad_snapshot_signature;
  let body = Signed.payload advertisement.snapshot in
  List.iter
    (fun summary ->
      let peer = summary.Snapshot.peer in
      if
        not
          (Freshness.validate pki ~now ~max_age:config.max_stamp_age ~expected_holder:peer
             summary.Snapshot.freshness)
      then push (Stale_or_invalid_stamp peer))
    body.Snapshot.summaries;
  (match
     Density_test.check ~gamma:config.gamma_jump ~local_occupancy:local.own_jump_occupancy
       ~peer_occupancy:advertisement.jump_table_occupancy
   with
  | `Suspicious ->
      push
        (Sparse_jump_table
           { local = local.own_jump_occupancy; advertised = advertisement.jump_table_occupancy })
  | `Acceptable -> ());
  (match
     Leaf_set.spacing_check ~gamma:config.gamma_leaf ~local:local.own_leaf_set
       ~peer:advertisement.leaf_set
   with
  | `Suspicious ->
      push
        (Sparse_leaf_set
           {
             local_spacing = Leaf_set.mean_spacing local.own_leaf_set;
             advertised_spacing = Leaf_set.mean_spacing advertisement.leaf_set;
           })
  | `Acceptable -> ());
  List.rev !failures
