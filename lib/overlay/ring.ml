module Bitset = Concilium_util.Bitset
module Sorted = Concilium_util.Sorted

(* A fixed identifier universe with a mutable alive set.

   Million-node worlds keep the full sorted id universe immutable for a
   whole run; churn only flips alive bits. Universe positions are therefore
   stable dense ints — the node ids of the flat-array simulator core — and
   neighbour lookups are bitset byte-scans instead of ordered-set surgery. *)

type t = { ids : Id.t array; alive : Bitset.t; mutable alive_count : int }

let validate_sorted ids =
  for i = 1 to Array.length ids - 1 do
    if Id.compare ids.(i - 1) ids.(i) >= 0 then
      invalid_arg "Ring: ids must be strictly ascending"
  done

let of_sorted_ids ids =
  validate_sorted ids;
  let n = Array.length ids in
  let alive = Bitset.create n in
  for i = 0 to n - 1 do
    Bitset.add alive i
  done;
  { ids; alive; alive_count = n }

let size t = Array.length t.ids
let alive_count t = t.alive_count
let id t i = t.ids.(i)
let is_alive t i = Bitset.mem t.alive i

let position_of_id t target =
  let i = Sorted.lower_bound Id.compare t.ids target in
  if i < size t && Id.equal t.ids.(i) target then Some i else None

let insertion_point t target = Sorted.lower_bound Id.compare t.ids target

let set_alive t i =
  if not (Bitset.mem t.alive i) then begin
    Bitset.add t.alive i;
    t.alive_count <- t.alive_count + 1
  end

let set_dead t i =
  if Bitset.mem t.alive i then begin
    Bitset.remove t.alive i;
    t.alive_count <- t.alive_count - 1
  end

(* ---------- Alive scans ---------- *)

(* First alive position in [lo, hi], or -1. *)
let next_alive_in t lo hi =
  if lo > hi then -1
  else begin
    let p = Bitset.next_member t.alive (max lo 0) in
    if p >= 0 && p <= hi then p else -1
  end

(* Last alive position in [lo, hi], or -1. *)
let prev_alive_in t lo hi =
  if lo > hi then -1
  else begin
    let p = Bitset.prev_member t.alive (min hi (size t - 1)) in
    if p >= lo then p else -1
  end

(* First alive position at or after [i], wrapping; -1 when nothing alive. *)
let next_alive_cyclic_from t i =
  let n = size t in
  if n = 0 || t.alive_count = 0 then -1
  else begin
    let i = if i >= n then 0 else max i 0 in
    let p = next_alive_in t i (n - 1) in
    if p >= 0 then p else next_alive_in t 0 (i - 1)
  end

(* First alive position strictly after [i] on the ring, excluding [i]
   itself; -1 when [i] is the only alive node (or none are). *)
let next_alive_cyclic t i =
  let n = size t in
  let p = next_alive_in t (i + 1) (n - 1) in
  if p >= 0 then p
  else begin
    let p = next_alive_in t 0 (i - 1) in
    p
  end

let prev_alive_cyclic t i =
  let n = size t in
  let p = prev_alive_in t 0 (i - 1) in
  if p >= 0 then p else prev_alive_in t (i + 1) (n - 1)

(* ---------- Prefix subranges ---------- *)

(* Positions whose ids share the first [digits_shared] digits of [anchor]:
   a half-open [lo, hi) slice of the sorted universe. *)
let prefix_range t anchor ~digits_shared =
  if digits_shared = 0 then (0, size t)
  else begin
    let lo_id, hi_id = Id.prefix_bounds anchor ~digits_shared in
    let lo = Sorted.lower_bound Id.compare t.ids lo_id in
    let hi = Sorted.upper_bound Id.compare t.ids hi_id in
    (lo, hi)
  end
