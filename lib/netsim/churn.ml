module Prng = Concilium_util.Prng

type config = {
  mean_uptime : float;
  mean_downtime : float;
  initial_online_fraction : float;
}

let default_config =
  { mean_uptime = 7200.; mean_downtime = 600.; initial_online_fraction = 0.95 }

(* CSR layout: host [h]'s sorted toggle times live in
   [times.(offsets.(h)) .. times.(offsets.(h + 1)) - 1]. A flat pair of
   arrays replaces the former array-of-arrays so a million-host timeline is
   two allocations rather than a million. State after an even number of
   toggles equals the initial state. *)
type t = { initial : bool array; offsets : int array; times : float array }

let generate ~rng ~config ~hosts ~duration =
  if hosts < 0 then invalid_arg "Churn.generate: negative host count";
  if config.mean_uptime <= 0. || config.mean_downtime <= 0. then
    invalid_arg "Churn.generate: mean periods must be positive";
  let initial = Array.init hosts (fun _ -> Prng.bernoulli rng config.initial_online_fraction) in
  let offsets = Array.make (hosts + 1) 0 in
  (* Growable buffer: draws are host-major, exactly the order of the old
     array-of-arrays representation, so timelines are bit-compatible. *)
  let buffer = ref (Array.make 1024 0.) in
  let filled = ref 0 in
  let push time =
    if !filled = Array.length !buffer then begin
      let grown = Array.make (2 * !filled) 0. in
      Array.blit !buffer 0 grown 0 !filled;
      buffer := grown
    end;
    !buffer.(!filled) <- time;
    incr filled
  in
  for host = 0 to hosts - 1 do
    let online = ref initial.(host) in
    let clock = ref 0. in
    let continue = ref true in
    while !continue do
      let mean = if !online then config.mean_uptime else config.mean_downtime in
      clock := !clock +. Prng.exponential rng ~rate:(1. /. mean);
      if !clock >= duration then continue := false
      else begin
        push !clock;
        online := not !online
      end
    done;
    offsets.(host + 1) <- !filled
  done;
  { initial; offsets; times = Array.sub !buffer 0 !filled }

(* analysis: allow test-only — observation point: tests check the event stream against the
   timeline *)
let toggle_count t = Array.length t.times
let initially_online t ~host = t.initial.(host)

let is_online t ~host ~time =
  let lo = t.offsets.(host) and hi = t.offsets.(host + 1) in
  (* Count toggles at or before [time] (binary search over the host's
     slice); parity flips the initial state. *)
  let a = ref lo and b = ref hi in
  while !a < !b do
    let mid = (!a + !b) / 2 in
    if t.times.(mid) <= time then a := mid + 1 else b := mid
  done;
  if (!a - lo) mod 2 = 0 then t.initial.(host) else not t.initial.(host)

let online_fraction t ~time =
  let hosts = Array.length t.initial in
  if hosts = 0 then 0.
  else begin
    let online = ref 0 in
    for host = 0 to hosts - 1 do
      if is_online t ~host ~time then incr online
    done;
    float_of_int !online /. float_of_int hosts
  end

(* analysis: allow test-only — observation point: tests check the event stream against per-host
   transitions *)
let transitions t ~host =
  let online = ref t.initial.(host) in
  let out = ref [] in
  for i = t.offsets.(host) to t.offsets.(host + 1) - 1 do
    online := not !online;
    out := (t.times.(i), !online) :: !out
  done;
  List.rev !out

let mean_online_fraction t ~duration ~samples =
  if samples <= 0 then invalid_arg "Churn.mean_online_fraction: need samples";
  let acc = ref 0. in
  for i = 0 to samples - 1 do
    let time = duration *. (float_of_int i +. 0.5) /. float_of_int samples in
    acc := !acc +. online_fraction t ~time
  done;
  !acc /. float_of_int samples

(* Every toggle across all hosts as one chronological stream — the scale
   driver's churn feed. Each element is (time, host); ties break by host
   order, deterministically. *)
let events t =
  let total = Array.length t.times in
  let host_of = Array.make total 0 in
  let hosts = Array.length t.initial in
  for host = 0 to hosts - 1 do
    for i = t.offsets.(host) to t.offsets.(host + 1) - 1 do
      host_of.(i) <- host
    done
  done;
  let order = Array.init total (fun i -> i) in
  Array.sort
    (fun a b ->
      match Float.compare t.times.(a) t.times.(b) with
      | 0 -> Int.compare host_of.(a) host_of.(b)
      | c -> c)
    order;
  Array.map (fun i -> (t.times.(i), host_of.(i))) order
