module Special = Concilium_stats.Special
module Normal = Concilium_stats.Normal
module Binomial = Concilium_stats.Binomial
module Beta = Concilium_stats.Beta
module Poisson_binomial = Concilium_stats.Poisson_binomial
module Descriptive = Concilium_stats.Descriptive
module Histogram = Concilium_stats.Histogram
module Hypothesis = Concilium_stats.Hypothesis
module Prng = Concilium_util.Prng

let check = Alcotest.check
let checkf tolerance = Alcotest.check (Alcotest.float tolerance)
let qtest = QCheck_alcotest.to_alcotest

(* ---------- Special functions ---------- *)

let test_log_gamma () =
  (* Gamma(n) = (n-1)! *)
  checkf 1e-10 "gamma(1)" 0. (Special.log_gamma 1.);
  checkf 1e-10 "gamma(2)" 0. (Special.log_gamma 2.);
  checkf 1e-9 "gamma(5)" (log 24.) (Special.log_gamma 5.);
  checkf 1e-9 "gamma(0.5)" (log (sqrt Float.pi)) (Special.log_gamma 0.5);
  (* Cross-checked with C lgamma(10.3). *)
  checkf 1e-5 "gamma(10.3)" 13.482037 (Special.log_gamma 10.3)

let test_log_binomial () =
  checkf 1e-9 "C(5,2)" (log 10.) (Special.log_binomial_coefficient 5 2);
  checkf 1e-6 "C(100,50)" 66.7838417 (Special.log_binomial_coefficient 100 50);
  check (Alcotest.float 0.) "C(5,6)" neg_infinity (Special.log_binomial_coefficient 5 6);
  checkf 1e-12 "C(7,0)" 0. (Special.log_binomial_coefficient 7 0)

let test_erf () =
  checkf 1e-6 "erf(0)" 0. (Special.erf 0.);
  checkf 1e-6 "erf(1)" 0.8427008 (Special.erf 1.);
  checkf 1e-6 "erf(-1)" (-0.8427008) (Special.erf (-1.));
  checkf 1e-6 "erf(2)" 0.9953223 (Special.erf 2.)

(* ---------- Normal ---------- *)

let test_normal_cdf () =
  checkf 1e-7 "cdf(0)" 0.5 (Normal.standard_cdf 0.);
  checkf 1e-5 "cdf(1.96)" 0.9750021 (Normal.standard_cdf 1.96);
  checkf 1e-5 "cdf(-1.96)" 0.0249979 (Normal.standard_cdf (-1.96));
  checkf 1e-5 "shifted" 0.8413447 (Normal.cdf ~mu:10. ~sigma:2. 12.)

let test_normal_quantile_inverts_cdf () =
  List.iter
    (fun p -> checkf 1e-4 "roundtrip" p (Normal.standard_cdf (Normal.standard_quantile p)))
    [ 0.001; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999 ]

(* ---------- Binomial ---------- *)

let test_binomial_pmf () =
  checkf 1e-9 "pmf(10,0.5,5)" 0.24609375 (Binomial.pmf ~n:10 ~p:0.5 5);
  checkf 1e-9 "pmf(3,0.2,0)" 0.512 (Binomial.pmf ~n:3 ~p:0.2 0);
  checkf 1e-12 "degenerate p=0" 1. (Binomial.pmf ~n:5 ~p:0. 0);
  checkf 1e-12 "degenerate p=1" 1. (Binomial.pmf ~n:5 ~p:1. 5)

let test_binomial_cdf_survival () =
  checkf 1e-9 "cdf + survival = 1 + pmf" 1.
    (Binomial.cdf ~n:20 ~p:0.3 7 +. Binomial.survival ~n:20 ~p:0.3 8);
  checkf 1e-9 "cdf full" 1. (Binomial.cdf ~n:12 ~p:0.7 12);
  checkf 1e-9 "survival 0" 1. (Binomial.survival ~n:12 ~p:0.7 0)

let prop_binomial_pmf_sums_to_one =
  QCheck.Test.make ~name:"binomial pmf sums to 1" ~count:50
    QCheck.(pair (int_range 1 40) (float_bound_inclusive 1.))
    (fun (n, p) ->
      let total = ref 0. in
      for k = 0 to n do
        total := !total +. Binomial.pmf ~n ~p k
      done;
      abs_float (!total -. 1.) < 1e-9)

(* ---------- Beta ---------- *)

let test_beta_mean_johnk () =
  (* The paper's Beta(0.9, 0.6): mean must be alpha/(alpha+beta) = 0.6. *)
  let rng = Prng.of_seed 31L in
  let n = 40_000 in
  let total = ref 0. in
  for _ = 1 to n do
    let x = Beta.sample rng ~alpha:0.9 ~beta:0.6 in
    assert (x >= 0. && x <= 1.);
    total := !total +. x
  done;
  checkf 0.01 "mean" 0.6 (!total /. float_of_int n)

let test_beta_mean_gamma_path () =
  let rng = Prng.of_seed 32L in
  let n = 40_000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Beta.sample rng ~alpha:2.5 ~beta:5.
  done;
  checkf 0.01 "mean" (2.5 /. 7.5) (!total /. float_of_int n)

(* ---------- Poisson binomial ---------- *)

let test_poisson_binomial_homogeneous_matches_binomial () =
  (* With identical p the Poisson binomial IS Binomial(n, p); the normal
     approximation must match its exact mean and variance. *)
  let n = 200 and p = 0.3 in
  let model = Poisson_binomial.of_probabilities (Array.make n p) in
  checkf 1e-9 "mean" (float_of_int n *. p) model.Poisson_binomial.mu_phi;
  checkf 1e-6 "std" (sqrt (float_of_int n *. p *. (1. -. p))) model.Poisson_binomial.sigma_phi

let test_poisson_binomial_heterogeneous_variance () =
  let probabilities = [| 0.1; 0.9; 0.5; 0.2; 0.7 |] in
  let model = Poisson_binomial.of_probabilities probabilities in
  let exact_var = Array.fold_left (fun acc p -> acc +. (p *. (1. -. p))) 0. probabilities in
  checkf 1e-9 "variance identity" exact_var
    (model.Poisson_binomial.sigma_phi *. model.Poisson_binomial.sigma_phi)

let test_poisson_binomial_cdf_monotone () =
  let model = Poisson_binomial.of_probabilities (Array.make 50 0.4) in
  let previous = ref neg_infinity in
  for d = 0 to 50 do
    let value = Poisson_binomial.cdf model (float_of_int d) in
    assert (value >= !previous);
    previous := value
  done;
  check Alcotest.bool "cdf in range" true (!previous <= 1.)

let test_poisson_binomial_pmf_band () =
  let model = Poisson_binomial.of_probabilities (Array.make 100 0.5) in
  let total = ref 0. in
  for d = 0 to 100 do
    total := !total +. Poisson_binomial.pmf_with_continuity model d
  done;
  checkf 0.01 "bands sum to ~1" 1. !total

(* ---------- Descriptive ---------- *)

let test_descriptive_summary () =
  let s = Descriptive.summarize [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  checkf 1e-9 "mean" 5. s.Descriptive.mean;
  checkf 1e-9 "stddev" 2. s.Descriptive.stddev;
  checkf 1e-9 "min" 2. s.Descriptive.minimum;
  checkf 1e-9 "max" 9. s.Descriptive.maximum

(* ---------- Histogram ---------- *)

let test_histogram_binning () =
  let h = Histogram.create ~lo:0. ~hi:1. ~bins:4 in
  List.iter (Histogram.add h) [ 0.1; 0.3; 0.3; 0.9; 1.5; -0.2 ];
  check (Alcotest.array Alcotest.int) "counts" [| 2; 2; 0; 2 |] (Histogram.counts h);
  check Alcotest.int "total" 6 (Histogram.total h);
  let pdf = Histogram.pdf h in
  let integral = Array.fold_left (fun acc d -> acc +. (d *. 0.25)) 0. pdf in
  checkf 1e-9 "pdf integrates to 1" 1. integral

(* ---------- Hypothesis ---------- *)

let test_one_proportion_z () =
  let z = Hypothesis.one_proportion_z ~successes:30 ~trials:100 ~p0:0.5 in
  checkf 0.001 "z" (-4.) z

let suites =
  [
    ( "stats.special",
      [
        Alcotest.test_case "log_gamma" `Quick test_log_gamma;
        Alcotest.test_case "log binomial coefficient" `Quick test_log_binomial;
        Alcotest.test_case "erf" `Quick test_erf;
      ] );
    ( "stats.normal",
      [
        Alcotest.test_case "cdf values" `Quick test_normal_cdf;
        Alcotest.test_case "quantile inverts cdf" `Quick test_normal_quantile_inverts_cdf;
      ] );
    ( "stats.binomial",
      [
        Alcotest.test_case "pmf values" `Quick test_binomial_pmf;
        Alcotest.test_case "cdf/survival duality" `Quick test_binomial_cdf_survival;
        qtest prop_binomial_pmf_sums_to_one;
      ] );
    ( "stats.beta",
      [
        Alcotest.test_case "Johnk sampler mean (paper's shape)" `Quick test_beta_mean_johnk;
        Alcotest.test_case "gamma-path sampler mean" `Quick test_beta_mean_gamma_path;
      ] );
    ( "stats.poisson_binomial",
      [
        Alcotest.test_case "homogeneous = binomial" `Quick
          test_poisson_binomial_homogeneous_matches_binomial;
        Alcotest.test_case "variance identity" `Quick test_poisson_binomial_heterogeneous_variance;
        Alcotest.test_case "cdf monotone" `Quick test_poisson_binomial_cdf_monotone;
        Alcotest.test_case "continuity bands" `Quick test_poisson_binomial_pmf_band;
      ] );
    ( "stats.descriptive",
      [
        Alcotest.test_case "summary" `Quick test_descriptive_summary;
      ] );
    ( "stats.histogram",
      [
        Alcotest.test_case "binning and pdf" `Quick test_histogram_binning;
      ] );
    ( "stats.hypothesis",
      [
        Alcotest.test_case "one-proportion z" `Quick test_one_proportion_z;
      ] );
  ]
