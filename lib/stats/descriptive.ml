type summary = {
  count : int;
  mean : float;
  variance : float;
  stddev : float;
  minimum : float;
  maximum : float;
}

let mean samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Descriptive.mean: empty sample";
  Array.fold_left ( +. ) 0. samples /. float_of_int n

let summarize samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Descriptive.summarize: empty sample";
  let mu = mean samples in
  let variance =
    Array.fold_left (fun acc x -> acc +. ((x -. mu) *. (x -. mu))) 0. samples
    /. float_of_int n
  in
  let minimum = Array.fold_left Float.min samples.(0) samples in
  let maximum = Array.fold_left Float.max samples.(0) samples in
  { count = n; mean = mu; variance; stddev = sqrt variance; minimum; maximum }

let stddev samples = (summarize samples).stddev
