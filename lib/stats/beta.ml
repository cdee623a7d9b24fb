module Prng = Concilium_util.Prng

let check alpha beta =
  if alpha <= 0. || beta <= 0. then invalid_arg "Beta: shape parameters must be positive"

(* Marsaglia-Tsang gamma sampler for shape >= 1; shape < 1 is boosted via
   Gamma(a) = Gamma(a+1) * U^(1/a). *)
let rec sample_gamma rng shape =
  if shape < 1. then begin
    let boost = sample_gamma rng (shape +. 1.) in
    let u =
      let rec positive () =
        let u = Prng.uniform rng in
        if u > 0. then u else positive ()
      in
      positive ()
    in
    boost *. (u ** (1. /. shape))
  end
  else begin
    let d = shape -. (1. /. 3.) in
    let c = 1. /. sqrt (9. *. d) in
    let rec loop () =
      let x = Prng.gaussian rng ~mu:0. ~sigma:1. in
      let v = 1. +. (c *. x) in
      if v <= 0. then loop ()
      else begin
        let v3 = v *. v *. v in
        let u = Prng.uniform rng in
        if u < 1. -. (0.0331 *. x *. x *. x *. x) then d *. v3
        else if u > 0. && log u < (0.5 *. x *. x) +. (d *. (1. -. v3 +. log v3)) then d *. v3
        else loop ()
      end
    in
    loop ()
  end

let johnk rng alpha beta =
  let rec loop () =
    let u = Prng.uniform rng and v = Prng.uniform rng in
    if u <= 0. || v <= 0. then loop ()
    else begin
      let x = u ** (1. /. alpha) and y = v ** (1. /. beta) in
      if x +. y <= 1. then
        if x +. y > 0. then x /. (x +. y)
        else begin
          (* Degenerate underflow: fall back to log-space comparison. *)
          let lx = log u /. alpha and ly = log v /. beta in
          let m = max lx ly in
          exp (lx -. m) /. (exp (lx -. m) +. exp (ly -. m))
        end
      else loop ()
    end
  in
  loop ()

let sample rng ~alpha ~beta =
  check alpha beta;
  if alpha <= 1. && beta <= 1. then johnk rng alpha beta
  else begin
    let x = sample_gamma rng alpha in
    let y = sample_gamma rng beta in
    x /. (x +. y)
  end
