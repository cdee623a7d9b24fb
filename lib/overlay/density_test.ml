module Poisson_binomial = Concilium_stats.Poisson_binomial

type verdict = [ `Acceptable | `Suspicious ]

let check ~gamma ~local_occupancy ~peer_occupancy =
  if gamma < 1. then invalid_arg "Density_test.check: gamma must be >= 1";
  if gamma *. float_of_int peer_occupancy < float_of_int local_occupancy then `Suspicious
  else `Acceptable

type rates = { false_positive : float; false_negative : float }

let slot_count = Id.digits * Id.base

let false_positive_rate ~gamma ~local ~peer =
  if gamma < 1. then invalid_arg "Density_test.false_positive_rate: gamma must be >= 1";
  let acc = ref 0. in
  for d = 0 to slot_count do
    let band = Poisson_binomial.pmf_with_continuity local d in
    let tail = Poisson_binomial.cdf peer (float_of_int d /. gamma) in
    acc := !acc +. (band *. tail)
  done;
  min 1. (max 0. !acc)

let false_negative_rate ~gamma ~local ~advertised =
  if gamma < 1. then invalid_arg "Density_test.false_negative_rate: gamma must be >= 1";
  let acc = ref 0. in
  for d = 0 to slot_count do
    let band = Poisson_binomial.pmf_with_continuity advertised d in
    let pass = 1. -. Poisson_binomial.cdf local (gamma *. float_of_int d) in
    (* Pr(local <= gamma*d), i.e. the advertised table is NOT below the
       local reference once scaled by gamma: the fraud escapes detection. *)
    acc := !acc +. (band *. (1. -. pass))
  done;
  min 1. (max 0. !acc)

type scenario = { n : int; colluding_fraction : float; suppression : bool }

let skewed_n n fraction =
  max 2 (int_of_float (Float.round (float_of_int n *. fraction)))

let rates ~gamma scenario =
  let { n; colluding_fraction = c; suppression } = scenario in
  if c <= 0. || c >= 1. then invalid_arg "Density_test.rates: colluding fraction outside (0,1)";
  let honest_model = Jump_table_model.model ~n in
  let malicious_model = Jump_table_model.model ~n:(skewed_n n c) in
  if not suppression then begin
    (* Without suppression the judge and an honest peer both sample the
       full-overlay occupancy distribution; only the malicious table is
       drawn from the Nc-node distribution. *)
    {
      false_positive = false_positive_rate ~gamma ~local:honest_model ~peer:honest_model;
      false_negative = false_negative_rate ~gamma ~local:honest_model ~advertised:malicious_model;
    }
  end
  else begin
    (* Suppression skew (see DESIGN.md): colluders hide their identifiers
       from the peer being judged, so an honest peer's table looks like an
       overlay of N(1-c) nodes while the judge's reference still reflects N
       (raising false positives); symmetrically the judge's own view can be
       suppressed to N(1-c) while the malicious table still draws from Nc
       (raising false negatives). *)
    let suppressed_model = Jump_table_model.model ~n:(skewed_n n (1. -. c)) in
    {
      false_positive = false_positive_rate ~gamma ~local:honest_model ~peer:suppressed_model;
      false_negative =
        false_negative_rate ~gamma ~local:suppressed_model ~advertised:malicious_model;
    }
  end

let optimal_gamma ~gammas scenario =
  if Array.length gammas = 0 then invalid_arg "Density_test.optimal_gamma: no candidates";
  let best = ref (gammas.(0), rates ~gamma:gammas.(0) scenario) in
  Array.iter
    (fun gamma ->
      let r = rates ~gamma scenario in
      let _, best_r = !best in
      if r.false_positive +. r.false_negative < best_r.false_positive +. best_r.false_negative
      then best := (gamma, r))
    gammas;
  !best
