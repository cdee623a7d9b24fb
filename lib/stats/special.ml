(* Lanczos approximation, g = 7, 9 coefficients (Numerical Recipes / Boost
   parameterisation). Valid for x > 0; reflection handles (0,0.5). *)
let lanczos_g = 7.

let lanczos_coefficients =
  [|
    0.99999999999980993;
    676.5203681218851;
    -1259.1392167224028;
    771.32342877765313;
    -176.61502916214059;
    12.507343278686905;
    -0.13857109526572012;
    9.9843695780195716e-6;
    1.5056327351493116e-7;
  |]

let rec log_gamma x =
  if x <= 0. then invalid_arg "Special.log_gamma: non-positive argument"
  else if x < 0.5 then
    (* Reflection formula: Gamma(x) Gamma(1-x) = pi / sin(pi x). *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1. -. x)
  else begin
    let x = x -. 1. in
    let acc = ref lanczos_coefficients.(0) in
    for i = 1 to Array.length lanczos_coefficients - 1 do
      acc := !acc +. (lanczos_coefficients.(i) /. (x +. float_of_int i))
    done;
    let t = x +. lanczos_g +. 0.5 in
    (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !acc
  end

let log_binomial_coefficient n k =
  if k < 0 || k > n then neg_infinity
  else if k = 0 || k = n then 0.
  else
    log_gamma (float_of_int (n + 1))
    -. log_gamma (float_of_int (k + 1))
    -. log_gamma (float_of_int (n - k + 1))

(* Abramowitz & Stegun 7.1.26: |error| <= 1.5e-7 on [0, inf). *)
let erf_positive x =
  let p = 0.3275911 in
  let a1 = 0.254829592
  and a2 = -0.284496736
  and a3 = 1.421413741
  and a4 = -1.453152027
  and a5 = 1.061405429 in
  let t = 1. /. (1. +. (p *. x)) in
  let poly = t *. (a1 +. (t *. (a2 +. (t *. (a3 +. (t *. (a4 +. (t *. a5)))))))) in
  1. -. (poly *. exp (-.x *. x))

let erf x = if x >= 0. then erf_positive x else -.erf_positive (-.x)
