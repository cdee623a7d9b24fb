let check n p =
  if n < 0 then invalid_arg "Binomial: negative n";
  if p < 0. || p > 1. then invalid_arg "Binomial: p outside [0,1]"

let log_pmf ~n ~p k =
  check n p;
  if k < 0 || k > n then neg_infinity
  else if p = 0. then if k = 0 then 0. else neg_infinity
  else if p = 1. then if k = n then 0. else neg_infinity
  else
    Special.log_binomial_coefficient n k
    +. (float_of_int k *. log p)
    +. (float_of_int (n - k) *. log (1. -. p))

let pmf ~n ~p k = exp (log_pmf ~n ~p k)

let cdf ~n ~p k =
  check n p;
  if k < 0 then 0.
  else if k >= n then 1.
  else begin
    (* Direct summation in log space; n stays small (~window size 100). *)
    let acc = ref 0. in
    for i = 0 to k do
      acc := !acc +. pmf ~n ~p i
    done;
    min 1. !acc
  end

let survival ~n ~p k =
  check n p;
  if k <= 0 then 1.
  else if k > n then 0.
  else begin
    (* Sum the smaller tail directly for accuracy. *)
    if k <= n / 2 then 1. -. cdf ~n ~p (k - 1)
    else begin
      let acc = ref 0. in
      for i = k to n do
        acc := !acc +. pmf ~n ~p i
      done;
      min 1. !acc
    end
  end
