module Prng = Concilium_util.Prng
module Poisson_binomial = Concilium_stats.Poisson_binomial

let fill_probability ~n ~row =
  if n < 1 then invalid_arg "Jump_table_model.fill_probability: n must be >= 1";
  if row < 0 || row >= Id.digits then
    invalid_arg "Jump_table_model.fill_probability: row out of range";
  (* 1 - (1 - v^-(row+1))^(n-1), via expm1/log1p to survive v^-(row+1)
     underflowing the subtraction. *)
  let prefix_probability = float_of_int Id.base ** float_of_int (-(row + 1)) in
  -.Float.expm1 (float_of_int (n - 1) *. Float.log1p (-.prefix_probability))

let slot_probabilities ~n =
  let out = Array.make (Id.digits * Id.base) 0. in
  for row = 0 to Id.digits - 1 do
    let p = fill_probability ~n ~row in
    for col = 0 to Id.base - 1 do
      out.((row * Id.base) + col) <- p
    done
  done;
  out

let model ~n = Poisson_binomial.of_probabilities (slot_probabilities ~n)
let expected_occupancy ~n = (model ~n).Poisson_binomial.mu_phi

let expected_routing_entries ~n ~leaf_set_size =
  expected_occupancy ~n +. float_of_int leaf_set_size

(* Slot (row, col) is filled iff its prefix range holds a node other than
   the owner; the owner lies in it exactly when col is its own digit. *)
let monte_carlo_occupancy ~rng ~n ~trials =
  let slots = float_of_int (Id.digits * Id.base) in
  Array.init trials (fun _ ->
      let ids = Array.init n (fun _ -> Id.random rng) in
      Array.sort Id.compare ids;
      let owner = ids.(Prng.int rng n) in
      let ring = Ring.of_sorted_ids ids in
      let filled = ref 0 in
      for row = 0 to Id.digits - 1 do
        for col = 0 to Id.base - 1 do
          let lo, hi =
            Ring.prefix_range ring (Id.with_digit owner row col) ~digits_shared:(row + 1)
          in
          let own = if Id.digit owner row = col then 1 else 0 in
          if hi - lo > own then incr filled
        done
      done;
      float_of_int !filled /. slots)
