let sqrt_two = sqrt 2.

let standard_cdf x = 0.5 *. (1. +. Special.erf (x /. sqrt_two))

let cdf ~mu ~sigma x =
  if sigma <= 0. then invalid_arg "Normal.cdf: sigma must be positive";
  standard_cdf ((x -. mu) /. sigma)

(* Acklam's inverse-normal approximation. *)
let standard_quantile p =
  if p <= 0. || p >= 1. then invalid_arg "Normal.standard_quantile: p outside (0,1)";
  let a =
    [|
      -3.969683028665376e+01;
      2.209460984245205e+02;
      -2.759285104469687e+02;
      1.383577518672690e+02;
      -3.066479806614716e+01;
      2.506628277459239e+00;
    |]
  in
  let b =
    [|
      -5.447609879822406e+01;
      1.615858368580409e+02;
      -1.556989798598866e+02;
      6.680131188771972e+01;
      -1.328068155288572e+01;
    |]
  in
  let c =
    [|
      -7.784894002430293e-03;
      -3.223964580411365e-01;
      -2.400758277161838e+00;
      -2.549732539343734e+00;
      4.374664141464968e+00;
      2.938163982698783e+00;
    |]
  in
  let d =
    [|
      7.784695709041462e-03;
      3.224671290700398e-01;
      2.445134137142996e+00;
      3.754408661907416e+00;
    |]
  in
  let p_low = 0.02425 in
  let p_high = 1. -. p_low in
  let rational num den q =
    let top = ref num.(0) and bot = ref 0. in
    for i = 1 to Array.length num - 1 do
      top := (!top *. q) +. num.(i)
    done;
    for i = 0 to Array.length den - 1 do
      bot := (!bot +. den.(i)) *. q
    done;
    !top /. (!bot +. 1.)
  in
  if p < p_low then begin
    let q = sqrt (-2. *. log p) in
    rational c d q
  end
  else if p <= p_high then begin
    let q = p -. 0.5 in
    let r = q *. q in
    let top = ref a.(0) and bot = ref b.(0) in
    for i = 1 to 5 do
      top := (!top *. r) +. a.(i)
    done;
    for i = 1 to 4 do
      bot := (!bot *. r) +. b.(i)
    done;
    let bot = (!bot *. r) +. 1. in
    !top *. q /. bot
  end
  else begin
    let q = sqrt (-2. *. log (1. -. p)) in
    -.rational c d q
  end
