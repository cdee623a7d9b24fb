let one_proportion_z ~successes ~trials ~p0 =
  if trials = 0 then 0.
  else begin
    let n = float_of_int trials in
    let p_hat = float_of_int successes /. n in
    let se = sqrt (p0 *. (1. -. p0) /. n) in
    if se = 0. then 0. else (p_hat -. p0) /. se
  end
