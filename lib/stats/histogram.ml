type t = { lo : float; hi : float; counts : int array; mutable total : int }

let create ~lo ~hi ~bins =
  if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
  if hi <= lo then invalid_arg "Histogram.create: hi must exceed lo";
  { lo; hi; counts = Array.make bins 0; total = 0 }

let bin_width t = (t.hi -. t.lo) /. float_of_int (Array.length t.counts)

let add t x =
  let bins = Array.length t.counts in
  let raw = int_of_float (floor ((x -. t.lo) /. bin_width t)) in
  let bin = max 0 (min (bins - 1) raw) in
  t.counts.(bin) <- t.counts.(bin) + 1;
  t.total <- t.total + 1

let total t = t.total
let counts t = Array.copy t.counts

let merge_into ~into src =
  if
    into.lo <> src.lo || into.hi <> src.hi
    || Array.length into.counts <> Array.length src.counts
  then invalid_arg "Histogram.merge_into: mismatched bounds or bin count";
  Array.iteri (fun i count -> into.counts.(i) <- into.counts.(i) + count) src.counts;
  into.total <- into.total + src.total

let bin_centers t =
  let w = bin_width t in
  Array.init (Array.length t.counts) (fun i -> t.lo +. (w *. (float_of_int i +. 0.5)))

let pdf t =
  if t.total = 0 then Array.make (Array.length t.counts) 0.
  else begin
    let scale = 1. /. (float_of_int t.total *. bin_width t) in
    Array.map (fun c -> float_of_int c *. scale) t.counts
  end
