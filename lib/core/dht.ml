module Id = Concilium_overlay.Id
module Leaf_set = Concilium_overlay.Leaf_set
module Pastry = Concilium_overlay.Pastry
module Pki = Concilium_crypto.Pki
module Signed = Concilium_crypto.Signed

type record_key = string (* accuser|accused|drop_time: idempotence key *)

type t = {
  pastry : Pastry.t;
  replication : int;
  stores : (record_key, Id.t * Accusation.t) Hashtbl.t array; (* per node: dht key + record *)
}

let create ~pastry ~replication =
  if replication < 1 then invalid_arg "Dht.create: replication must be >= 1";
  {
    pastry;
    replication;
    stores = Array.init (Pastry.node_count pastry) (fun _ -> Hashtbl.create 8);
  }

let key_of_public_key public_key =
  Id.of_name ("accusation-key|" ^ Pki.public_key_to_string public_key)

(* Root first, then the root's leaf-set members by ring proximity to the
   key: the full candidate ordering that failover walks when replicas are
   down. *)
let replica_candidates t ~key =
  let root = Pastry.numerically_closest t.pastry key in
  let root_node = Pastry.node t.pastry root in
  let neighbors =
    List.filter_map
      (fun id -> Pastry.index_of_id t.pastry id)
      (Leaf_set.members root_node.Pastry.leaf_set)
  in
  let by_distance =
    List.sort
      (fun a b ->
        Id.compare
          (Id.ring_distance (Pastry.node t.pastry a).Pastry.id key)
          (Id.ring_distance (Pastry.node t.pastry b).Pastry.id key))
      (List.filter (fun n -> n <> root) neighbors)
  in
  root :: by_distance

let rec take n = function
  | [] -> []
  | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest

(* analysis: allow test-only — observation point: tests check replica placement and steward
   failover *)
let replica_nodes t ~key = take t.replication (replica_candidates t ~key)

let live_replicas t ~key ~alive =
  take t.replication (List.filter alive (replica_candidates t ~key))

let record_key accusation =
  let body = Signed.payload accusation in
  Printf.sprintf "%s|%s|%.6f" (Id.to_hex body.Accusation.accuser)
    (Id.to_hex body.Accusation.accused)
    body.Accusation.evidence.Accusation.drop_time

let route_hops t ~from ~target =
  let dest = (Pastry.node t.pastry target).Pastry.id in
  max 0 (List.length (Pastry.route t.pastry ~from ~dest) - 1)

type put_report = { replicas_written : int; put_failed_over : bool }

type get_report = {
  accusations : Accusation.t list;
  replicas_read : int;
  get_failed_over : bool;
}

(* Failover happened iff the key's root candidate is dead yet some live
   candidate absorbed the operation: the root-first candidate order means
   any such operation landed strictly further from the key than intended. *)
let root_dead t ~key ~alive =
  match replica_candidates t ~key with [] -> false | root :: _ -> not (alive root)

let put t ~from ?(alive = fun _ -> true) ?(copies = 1) ~accused_key accusation ~hops =
  let key = key_of_public_key accused_key in
  let record = record_key accusation in
  (* Failover: when the root (or any closer replica) is dead, the write
     lands on the next-closest live candidates so [replication] surviving
     copies exist whenever enough of the leaf set is up. Each duplicated
     delivery re-pays routing hops but is absorbed by the idempotence
     key. *)
  let replicas = live_replicas t ~key ~alive in
  for _ = 1 to max 1 copies do
    List.iter
      (fun replica ->
        hops := !hops + route_hops t ~from ~target:replica;
        Hashtbl.replace t.stores.(replica) record (key, accusation))
      replicas
  done;
  {
    replicas_written = List.length replicas;
    put_failed_over = replicas <> [] && root_dead t ~key ~alive;
  }

let get t ~from ?(alive = fun _ -> true) ~accused_key ~hops () =
  let key = key_of_public_key accused_key in
  match live_replicas t ~key ~alive with
  | [] -> { accusations = []; replicas_read = 0; get_failed_over = false }
  | (first :: _) as replicas ->
      hops := !hops + route_hops t ~from ~target:first;
      (* Merge across the surviving replicas: a replica that lost its store
         (or missed a write while down) degrades the read only if every
         survivor lost the record. The store is keyed by idempotence
         record; sorting on it makes the result hash-seed-independent. *)
      let merged = Hashtbl.create 8 in
      let stash record (stored_key, accusation) =
        if Id.equal stored_key key then Hashtbl.replace merged record accusation
      in
      List.iter (fun replica -> Hashtbl.iter stash t.stores.(replica)) replicas;
      let accusations =
        Hashtbl.fold (fun record accusation acc -> (record, accusation) :: acc) merged []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.map snd
      in
      {
        accusations;
        replicas_read = List.length replicas;
        get_failed_over = root_dead t ~key ~alive;
      }

let drop_replica t ~node = Hashtbl.reset t.stores.(node)

let stored_count t ~node = Hashtbl.length t.stores.(node)

let total_records t =
  Array.fold_left (fun acc store -> acc + Hashtbl.length store) 0 t.stores
