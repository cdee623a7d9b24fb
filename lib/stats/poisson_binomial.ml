type t = {
  slot_count : int;
  mu : float;
  sigma_sq : float;
  mu_phi : float;
  sigma_phi : float;
}

let of_probabilities probabilities =
  let n = Array.length probabilities in
  if n = 0 then invalid_arg "Poisson_binomial.of_probabilities: empty";
  Array.iter
    (fun p ->
      if p < 0. || p > 1. then invalid_arg "Poisson_binomial: probability outside [0,1]")
    probabilities;
  let nf = float_of_int n in
  let mu = Array.fold_left ( +. ) 0. probabilities /. nf in
  let sigma_sq =
    Array.fold_left (fun acc p -> acc +. ((p -. mu) *. (p -. mu))) 0. probabilities /. nf
  in
  let mu_phi = nf *. mu in
  let variance_phi = (nf *. mu *. (1. -. mu)) -. (nf *. sigma_sq) in
  (* The identity guarantees non-negativity up to rounding; clamp tiny
     negatives and keep a floor so the cdf stays well-defined even for
     degenerate (all-0/all-1) probability vectors. *)
  let sigma_phi = sqrt (max 1e-12 variance_phi) in
  { slot_count = n; mu; sigma_sq; mu_phi; sigma_phi }

let cdf t x = Normal.cdf ~mu:t.mu_phi ~sigma:t.sigma_phi x

let pmf_with_continuity t d =
  let d = float_of_int d in
  max 0. (cdf t (d +. 0.5) -. cdf t (d -. 0.5))
