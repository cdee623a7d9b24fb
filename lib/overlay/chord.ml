module Sorted = Concilium_util.Sorted
module Prng = Concilium_util.Prng
module Poisson_binomial = Concilium_stats.Poisson_binomial

type entry = { peer : Id.t; node : int }

type node = {
  index : int;
  id : Id.t;
  successors : entry array;
  fingers : entry option array;
}

type t = {
  nodes : node array;
  sorted : (Id.t * int) array;
  (* Per node: its distinct finger/successor targets sorted by clockwise
     distance from it ([jump_dists] ascending, [jump_nodes] parallel), so
     "closest preceding candidate" is a binary search, not a 136-entry
     scan. *)
  jump_nodes : int array array;
  jump_dists : Id.t array array;
}

let finger_count = 128

let compare_fst (a, _) (b, _) = Id.compare a b

(* First node clockwise at-or-after [key] in the sorted ring. *)
let successor_position sorted key =
  let position = Sorted.lower_bound compare_fst sorted (key, 0) in
  if position >= Array.length sorted then 0 else position

let build ?(successor_count = 8) ids =
  let n = Array.length ids in
  if n < 2 then invalid_arg "Chord.build: need at least two nodes";
  let sorted = Array.mapi (fun index id -> (id, index)) ids in
  Array.sort compare_fst sorted;
  for i = 1 to n - 1 do
    if Id.equal (fst sorted.(i - 1)) (fst sorted.(i)) then
      invalid_arg "Chord.build: duplicate identifier"
  done;
  let entry_at ring_position =
    let id, node = sorted.(((ring_position mod n) + n) mod n) in
    { peer = id; node }
  in
  let nodes =
    Array.mapi
      (fun index id ->
        let my_position = successor_position sorted id in
        (* [my_position] is this node itself (ids are unique). *)
        let successors =
          Array.init (min successor_count (n - 1)) (fun k -> entry_at (my_position + k + 1))
        in
        let fingers =
          Array.init finger_count (fun k ->
              let target = Id.add_power_of_two id k in
              let upper =
                if k = finger_count - 1 then id else Id.add_power_of_two id (k + 1)
              in
              (* The unique first node clockwise of the target, kept only if
                 it falls inside the finger's own interval (otherwise the
                 interval is empty). *)
              let candidate = entry_at (successor_position sorted target) in
              if
                (not (Id.equal candidate.peer id))
                && Id.in_clockwise_interval candidate.peer ~lo:target ~hi:upper
              then Some candidate
              else None)
        in
        { index; id; successors; fingers })
      ids
  in
  let jumps_of node =
    let acc = ref [] in
    let consider (e : entry) =
      if not (Id.equal e.peer node.id) then
        acc := (Id.clockwise_distance node.id e.peer, e.node) :: !acc
    in
    Array.iter consider node.successors;
    Array.iter (fun finger -> Option.iter consider finger) node.fingers;
    let ordered = List.sort (fun (a, _) (b, _) -> Id.compare a b) !acc in
    (* Equal distance = same peer (ids are unique): drop duplicates. *)
    let rec dedup = function
      | (a, x) :: (b, _) :: rest when Id.equal a b -> dedup ((a, x) :: rest)
      | pair :: rest -> pair :: dedup rest
      | [] -> []
    in
    let deduped = dedup ordered in
    (Array.of_list (List.map snd deduped), Array.of_list (List.map fst deduped))
  in
  let jump_nodes = Array.make n [||] and jump_dists = Array.make n [||] in
  Array.iteri
    (fun i node ->
      let nodes, dists = jumps_of node in
      jump_nodes.(i) <- nodes;
      jump_dists.(i) <- dists)
    nodes;
  { nodes; sorted; jump_nodes; jump_dists }

let node_count t = Array.length t.nodes
let node t i = t.nodes.(i)

let successor_of_key t key = snd t.sorted.(successor_position t.sorted key)

(* Retained linear-scan forwarding: the reference the O(log n) [next_hop]
   is property-tested (and benchmarked) against. *)
let next_hop_reference t ~from ~dest =
  let here = t.nodes.(from) in
  if Id.equal here.id dest then None
  else begin
    let immediate = here.successors.(0) in
    (* dest in (here, successor]: the successor owns it. *)
    if
      Id.in_clockwise_interval dest ~lo:(Id.succ here.id) ~hi:(Id.succ immediate.peer)
      || Id.equal dest immediate.peer
    then if immediate.node = from then None else Some immediate.node
    else begin
      (* Closest preceding finger or successor: maximise clockwise distance
         from here while staying strictly before dest. *)
      let best = ref None in
      let consider (candidate : entry) =
        if
          (not (Id.equal candidate.peer here.id))
          && Id.in_clockwise_interval candidate.peer ~lo:(Id.succ here.id) ~hi:dest
        then begin
          let progress = Id.clockwise_distance here.id candidate.peer in
          match !best with
          | Some (_, best_progress) when Id.compare progress best_progress <= 0 -> ()
          | _ -> best := Some (candidate.node, progress)
        end
      in
      Array.iter (fun finger -> Option.iter consider finger) here.fingers;
      Array.iter consider here.successors;
      match !best with
      | Some (node, _) -> Some node
      | None ->
          (* Fall back on the immediate successor: guaranteed progress. *)
          if immediate.node = from then None else Some immediate.node
    end
  end

let next_hop t ~from ~dest =
  let here = t.nodes.(from) in
  if Id.equal here.id dest then None
  else begin
    let immediate = here.successors.(0) in
    if
      Id.in_clockwise_interval dest ~lo:(Id.succ here.id) ~hi:(Id.succ immediate.peer)
      || Id.equal dest immediate.peer
    then if immediate.node = from then None else Some immediate.node
    else begin
      (* A candidate qualifies iff its clockwise distance from here is
         strictly below dest's, and the winner maximises that distance —
         i.e. the last jump-table entry below [d_dest], found by binary
         search. Big-endian distance strings compare as unsigned ints, so
         Id.compare is the right order. *)
      let dists = t.jump_dists.(from) and nodes = t.jump_nodes.(from) in
      let d_dest = Id.clockwise_distance here.id dest in
      let a = ref 0 and b = ref (Array.length dists) in
      while !a < !b do
        let mid = (!a + !b) / 2 in
        if Id.compare dists.(mid) d_dest >= 0 then b := mid else a := mid + 1
      done;
      if !a > 0 then Some nodes.(!a - 1)
      else if immediate.node = from then None
      else Some immediate.node
    end
  end

let route t ~from ~dest =
  let owner = successor_of_key t dest in
  let limit = (2 * finger_count) + Array.length t.nodes in
  let rec loop current acc remaining =
    if current = owner then List.rev (current :: acc)
    else if remaining = 0 then failwith "Chord.route: forwarding did not converge"
    else begin
      match next_hop t ~from:current ~dest with
      | None -> List.rev (current :: acc)
      | Some next -> loop next (current :: acc) (remaining - 1)
    end
  in
  loop from [] limit

let interval_occupancy node =
  Array.fold_left (fun acc f -> match f with Some _ -> acc + 1 | None -> acc) 0 node.fingers

let mean_route_length t ~trials ~rng =
  let total = ref 0 in
  for _ = 1 to trials do
    let from = Prng.int rng (node_count t) in
    let dest = Id.random rng in
    total := !total + (List.length (route t ~from ~dest) - 1)
  done;
  float_of_int !total /. float_of_int trials

module Model = struct
  let interval_probability ~n ~index =
    if n < 1 then invalid_arg "Chord.Model.interval_probability: n must be >= 1";
    if index < 0 || index >= finger_count then
      invalid_arg "Chord.Model.interval_probability: index out of range";
    (* Interval k spans 2^k of the 2^128 ring: a uniformly random other node
       lands in it with probability 2^(k-128). *)
    let p_interval = 2. ** float_of_int (index - finger_count) in
    -.Float.expm1 (float_of_int (n - 1) *. Float.log1p (-.p_interval))

  let occupancy_model ~n =
    Poisson_binomial.of_probabilities
      (Array.init finger_count (fun index -> interval_probability ~n ~index))

  let expected_occupancy ~n = (occupancy_model ~n).Poisson_binomial.mu_phi

  let monte_carlo_occupancy ~rng ~n ~trials =
    Array.init trials (fun _ ->
        let ids = Array.init n (fun _ -> Id.random rng) in
        let overlay = build ~successor_count:4 ids in
        let sample = node overlay (Prng.int rng n) in
        float_of_int (interval_occupancy sample) /. float_of_int finger_count)
end
