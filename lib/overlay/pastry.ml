module Bitset = Concilium_util.Bitset

type node = { index : int; id : Id.t; leaf_set : Leaf_set.t }

(* Node indices follow the caller's id array; the ring and its secure
   tables are indexed by sorted position. The two permutations translate. *)
type t = {
  nodes : node array;
  ring : Ring.t;
  table : Inc_table.t;
  index_of_position : int array;
  position_of_index : int array;
  occupancy : int array;
  leaf_half : int;
}

let compare_fst (a, _) (b, _) = Id.compare a b

let build ?(leaf_half_size = 8) ids =
  let n = Array.length ids in
  if n < 2 then invalid_arg "Pastry.build: need at least two nodes";
  let sorted = Array.mapi (fun index id -> (id, index)) ids in
  Array.sort compare_fst sorted;
  for i = 1 to n - 1 do
    if Id.equal (fst sorted.(i - 1)) (fst sorted.(i)) then
      invalid_arg "Pastry.build: duplicate identifier"
  done;
  let sorted_ids = Array.map fst sorted in
  let index_of_position = Array.map snd sorted in
  let position_of_index = Array.make n 0 in
  Array.iteri (fun position index -> position_of_index.(index) <- position) index_of_position;
  let ring = Ring.of_sorted_ids sorted_ids in
  (* Every row is materialised: the fallback and [routing_peers] read them all. *)
  let table = Inc_table.build ~rows:Id.digits ring in
  let nodes =
    Array.mapi
      (fun index id ->
        { index; id; leaf_set = Leaf_set.build ~owner:id ~sorted_ids ~half_size:leaf_half_size })
      ids
  in
  let occupancy =
    Array.map
      (fun owner ->
        let filled = ref 0 in
        for row = 0 to Id.digits - 1 do
          for col = 0 to Id.base - 1 do
            if Inc_table.entry table ~owner ~row ~col >= 0 then incr filled
          done
        done;
        !filled)
      position_of_index
  in
  { nodes; ring; table; index_of_position; position_of_index; occupancy; leaf_half = leaf_half_size }

let node_count t = Array.length t.nodes
let node t i = t.nodes.(i)
let leaf_half_size t = t.leaf_half
let occupancy t v = t.occupancy.(v)

let slot t v ~row ~col =
  let e = Inc_table.entry t.table ~owner:t.position_of_index.(v) ~row ~col in
  if e < 0 then None else Some t.index_of_position.(e)

let index_of_id t id = Option.map (fun p -> t.index_of_position.(p)) (Ring.position_of_id t.ring id)

let index_of_id_exn t id =
  match index_of_id t id with
  | Some i -> i
  | None -> invalid_arg "Pastry: unknown identifier"

let numerically_closest t key =
  let n = Ring.size t.ring in
  let position = Ring.insertion_point t.ring key in
  let best = ref None in
  let consider raw =
    let p = ((raw mod n) + n) mod n in
    let d = Id.ring_distance (Ring.id t.ring p) key in
    match !best with
    | Some (_, best_d) when Id.compare d best_d >= 0 -> ()
    | _ -> best := Some (p, d)
  in
  consider position;
  consider (position - 1);
  consider (position + 1);
  (* analysis: allow assert-false — the ring has at least two members
     (build rejects smaller ones), so a candidate was considered. *)
  match !best with Some (p, _) -> t.index_of_position.(p) | None -> assert false

let next_hop t ~from ~dest =
  let here = t.nodes.(from) in
  if Id.equal here.id dest then None
  else if Leaf_set.covers here.leaf_set dest then begin
    let closest = Leaf_set.closest_member here.leaf_set dest in
    if Id.equal closest here.id then None else Some (index_of_id_exn t closest)
  end
  else begin
    let row = Id.shared_prefix_length here.id dest in
    match slot t from ~row ~col:(Id.digit dest row) with
    | Some next -> Some next
    | None ->
        (* Rare fallback: any known peer that is strictly closer to the key
           and shares at least as long a prefix (standard Pastry rule).
           Leaf members are considered first, then slots row-major; the
           first strictly-best candidate wins ties. *)
        let here_distance = Id.ring_distance here.id dest in
        let best = ref None in
        let consider id =
          if (not (Id.equal id here.id))
             && Id.shared_prefix_length id dest >= row
             && Id.compare (Id.ring_distance id dest) here_distance < 0
          then begin
            let d = Id.ring_distance id dest in
            match !best with
            | Some (_, best_d) when Id.compare d best_d >= 0 -> ()
            | _ -> best := Some (id, d)
          end
        in
        List.iter consider (Leaf_set.members here.leaf_set);
        let owner = t.position_of_index.(from) in
        for r = 0 to Id.digits - 1 do
          for c = 0 to Id.base - 1 do
            let e = Inc_table.entry t.table ~owner ~row:r ~col:c in
            if e >= 0 then consider (Ring.id t.ring e)
          done
        done;
        Option.map (fun (id, _) -> index_of_id_exn t id) !best
  end

let route t ~from ~dest =
  let limit = (2 * Id.digits) + (4 * t.leaf_half) in
  let rec loop current acc remaining =
    if remaining = 0 then failwith "Pastry.route: forwarding did not converge"
    else begin
      match next_hop t ~from:current ~dest with
      | None -> List.rev (current :: acc)
      | Some next -> loop next (current :: acc) (remaining - 1)
    end
  in
  loop from [] limit

let routing_peers t index =
  let seen = Bitset.create (Array.length t.nodes) in
  let add node_index = if node_index <> index then Bitset.add seen node_index in
  for row = 0 to Id.digits - 1 do
    for col = 0 to Id.base - 1 do
      Option.iter add (slot t index ~row ~col)
    done
  done;
  List.iter (fun id -> add (index_of_id_exn t id)) (Leaf_set.members t.nodes.(index).leaf_set);
  let out = Array.make (Bitset.cardinal seen) 0 in
  let k = ref 0 in
  (* Bitset iteration is ascending: the output arrives sorted. *)
  Bitset.iter
    (fun peer ->
      out.(!k) <- peer;
      incr k)
    seen;
  out

let mean_routing_peer_count t =
  let total = ref 0 in
  for i = 0 to node_count t - 1 do
    total := !total + Array.length (routing_peers t i)
  done;
  float_of_int !total /. float_of_int (node_count t)
