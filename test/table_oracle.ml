(* Reference oracle for the secure-slot rule (Castro's constrained jump
   tables): slot (row, col) of an owner's table holds the member closest on
   the ring to the point with_digit owner row col, among members other than
   the owner that share the point's (row+1)-digit prefix; ties go to the
   smaller id. One owner's table is computed from scratch over a sorted
   (id, node index) membership array, with no incremental state, so it can
   pin Inc_table, Pastry and Jump_table_model slot for slot. *)

module Id = Concilium_overlay.Id
module Sorted = Concilium_util.Sorted

type entry = { peer : Id.t; node : int }

(* Row-major: slot (row, col) lives at row * Id.base + col. *)
type t = entry option array

let get (t : t) ~row ~col = t.((row * Id.base) + col)
let occupancy (t : t) = Array.fold_left (fun acc e -> if Option.is_some e then acc + 1 else acc) 0 t

let compare_fst (a, _) (b, _) = Id.compare a b

(* Candidates for slot (row, col): identifiers in the closed range
   [prefix(row digits of owner) . col . 00..0, same prefix . col . ff..f],
   located with two binary searches over the sorted membership. *)
let candidate_range ~owner_id ~row ~col sorted =
  let point = Id.with_digit owner_id row col in
  let fill digit =
    let rec go id i = if i >= Id.digits then id else go (Id.with_digit id i digit) (i + 1) in
    go point (row + 1)
  in
  let lo_bound = fill 0 and hi_bound = fill (Id.base - 1) in
  let lo = Sorted.lower_bound compare_fst sorted (lo_bound, 0) in
  let hi = Sorted.upper_bound compare_fst sorted (hi_bound, 0) in
  (point, lo, hi)

(* Linear scan of the whole range: the first strictly closer candidate
   wins, so equal distances keep the smaller id. *)
let closest_in_range ~point ~owner_id sorted lo hi =
  let best = ref None in
  for index = lo to hi - 1 do
    let id, node = sorted.(index) in
    if not (Id.equal id owner_id) then begin
      let d = Id.ring_distance id point in
      match !best with
      | Some (_, best_d) when Id.compare d best_d >= 0 -> ()
      | _ -> best := Some ({ peer = id; node }, d)
    end
  done;
  Option.map fst !best

let build_secure ~owner:owner_id ~sorted : t =
  Array.init (Id.digits * Id.base) (fun slot ->
      let row = slot / Id.base and col = slot mod Id.base in
      let point, lo, hi = candidate_range ~owner_id ~row ~col sorted in
      closest_in_range ~point ~owner_id sorted lo hi)
