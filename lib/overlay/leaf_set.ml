module Sorted = Concilium_util.Sorted

type t = { owner : Id.t; clockwise : Id.t array; counter_clockwise : Id.t array }

let build ~owner ~sorted_ids ~half_size =
  if half_size <= 0 then invalid_arg "Leaf_set.build: half_size must be positive";
  let n = Array.length sorted_ids in
  let position = Sorted.lower_bound Id.compare sorted_ids owner in
  (* Walk outwards from the owner's ring position on each side, skipping the
     owner itself. *)
  let take direction count =
    let out = ref [] and found = ref 0 and step = ref 1 in
    while !found < count && !step <= n do
      let index =
        let raw = if direction > 0 then position + !step - 1 else position - !step in
        ((raw mod n) + n) mod n
      in
      let candidate = sorted_ids.(index) in
      if not (Id.equal candidate owner) then begin
        out := candidate :: !out;
        incr found
      end;
      incr step
    done;
    Array.of_list (List.rev !out)
  in
  let available = max 0 (n - 1) in
  let per_side = min half_size ((available + 1) / 2) in
  let clockwise = take 1 (min per_side available) in
  (* Counter-clockwise must not duplicate clockwise picks in tiny rings. *)
  let counter_raw = take (-1) available in
  let counter =
    Array.of_list
      (List.filteri
         (fun i id -> i < per_side && not (Array.exists (Id.equal id) clockwise))
         (Array.to_list counter_raw))
  in
  { owner; clockwise; counter_clockwise = counter }

(* analysis: allow test-only — observation point: tests check the clockwise half and its
   wraparound *)
let clockwise t = Array.copy t.clockwise
let counter_clockwise t = Array.copy t.counter_clockwise
let members t = Array.to_list t.counter_clockwise @ Array.to_list t.clockwise
let size t = Array.length t.clockwise + Array.length t.counter_clockwise

let mean_spacing t =
  let count = size t in
  if count = 0 then Id.ring_size_float
  else begin
    (* Span from the farthest counter-clockwise member, through the owner,
       to the farthest clockwise member, divided by the hop count. *)
    let last array fallback =
      if Array.length array = 0 then fallback else array.(Array.length array - 1)
    in
    let start = last t.counter_clockwise t.owner in
    let stop = last t.clockwise t.owner in
    let span = Id.to_float (Id.clockwise_distance start stop) in
    let span = if span = 0. then Id.ring_size_float else span in
    span /. float_of_int count
  end

(* analysis: allow test-only — the paper's network-size estimate; nothing calls it yet; deleting
   it deletes its test, left for a later change *)
let estimate_network_size t = Id.ring_size_float /. mean_spacing t

let covers t dest =
  let last array fallback =
    if Array.length array = 0 then fallback else array.(Array.length array - 1)
  in
  let start = last t.counter_clockwise t.owner in
  let stop = last t.clockwise t.owner in
  (* dest in [start, stop] going clockwise. *)
  let to_dest = Id.to_float (Id.clockwise_distance start dest) in
  let to_stop = Id.to_float (Id.clockwise_distance start stop) in
  to_dest <= to_stop

let closest_member t dest =
  let best = ref t.owner in
  let best_distance = ref (Id.ring_distance t.owner dest) in
  let consider id =
    let d = Id.ring_distance id dest in
    let c = Id.compare d !best_distance in
    if c < 0 || (c = 0 && Id.compare id !best < 0) then begin
      best := id;
      best_distance := d
    end
  in
  Array.iter consider t.clockwise;
  Array.iter consider t.counter_clockwise;
  !best

let spacing_check ~gamma ~local ~peer =
  if gamma < 1. then invalid_arg "Leaf_set.spacing_check: gamma must be >= 1";
  if mean_spacing peer > gamma *. mean_spacing local then `Suspicious else `Acceptable
