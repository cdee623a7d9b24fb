module Id = Concilium_overlay.Id
module Leaf_set = Concilium_overlay.Leaf_set
module Jump_table_model = Concilium_overlay.Jump_table_model
module Density_test = Concilium_overlay.Density_test
module Pastry = Concilium_overlay.Pastry
module Freshness = Concilium_overlay.Freshness
module Pki = Concilium_crypto.Pki
module Poisson_binomial = Concilium_stats.Poisson_binomial
module Descriptive = Concilium_stats.Descriptive
module Prng = Concilium_util.Prng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let id_gen =
  QCheck.Gen.(map (fun n -> Id.random (Prng.of_seed (Int64.of_int n))) big_nat)

let arbitrary_id = QCheck.make ~print:Id.to_hex id_gen

(* ---------- Id ---------- *)

let test_id_hex_roundtrip () =
  let hex = "0123456789abcdef0123456789abcdef" in
  check Alcotest.string "roundtrip" hex (Id.to_hex (Id.of_hex hex));
  Alcotest.check_raises "short" (Invalid_argument "Id.of_hex: expected 32 hex digits") (fun () ->
      ignore (Id.of_hex "abc"))

let test_id_digits () =
  let id = Id.of_hex "f0000000000000000000000000000001" in
  check Alcotest.int "digit 0" 15 (Id.digit id 0);
  check Alcotest.int "digit 1" 0 (Id.digit id 1);
  check Alcotest.int "digit 31" 1 (Id.digit id 31);
  let swapped = Id.with_digit id 1 10 in
  check Alcotest.string "with_digit" "fa000000000000000000000000000001" (Id.to_hex swapped);
  check Alcotest.int "original untouched" 0 (Id.digit id 1)

let test_id_prefix () =
  let a = Id.of_hex "aabbcc00000000000000000000000000" in
  let b = Id.of_hex "aabbcd00000000000000000000000000" in
  check Alcotest.int "shared prefix" 5 (Id.shared_prefix_length a b);
  check Alcotest.int "self prefix" 32 (Id.shared_prefix_length a a)

let test_id_ring_distance () =
  let zero = Id.zero in
  let one = Id.of_hex "00000000000000000000000000000001" in
  let max_id = Id.of_hex "ffffffffffffffffffffffffffffffff" in
  check Alcotest.string "clockwise 0->1" (Id.to_hex one)
    (Id.to_hex (Id.clockwise_distance zero one));
  (* max -> 0 wraps: distance 1. *)
  check Alcotest.string "wraparound" (Id.to_hex one)
    (Id.to_hex (Id.clockwise_distance max_id zero));
  check Alcotest.string "ring distance symmetric-min" (Id.to_hex one)
    (Id.to_hex (Id.ring_distance zero max_id))

let test_id_succ () =
  let max_id = Id.of_hex "ffffffffffffffffffffffffffffffff" in
  check Alcotest.string "wrap" (Id.to_hex Id.zero) (Id.to_hex (Id.succ max_id));
  check Alcotest.string "carry" "00000000000000000000000000000100"
    (Id.to_hex (Id.succ (Id.of_hex "000000000000000000000000000000ff")))

let prop_ring_distance_symmetric =
  QCheck.Test.make ~name:"ring distance is symmetric" ~count:200
    QCheck.(pair arbitrary_id arbitrary_id)
    (fun (a, b) -> Id.equal (Id.ring_distance a b) (Id.ring_distance b a))

let prop_clockwise_sum_is_zero =
  QCheck.Test.make ~name:"cw(a,b) + cw(b,a) = ring size (mod 2^128)" ~count:200
    QCheck.(pair arbitrary_id arbitrary_id)
    (fun (a, b) ->
      QCheck.assume (not (Id.equal a b));
      let ab = Id.to_float (Id.clockwise_distance a b) in
      let ba = Id.to_float (Id.clockwise_distance b a) in
      abs_float (ab +. ba -. Id.ring_size_float) /. Id.ring_size_float < 1e-9)

let prop_with_digit_sets_digit =
  QCheck.Test.make ~name:"with_digit sets exactly one digit" ~count:200
    QCheck.(triple arbitrary_id (int_bound 31) (int_bound 15))
    (fun (id, position, value) ->
      let updated = Id.with_digit id position value in
      Id.digit updated position = value
      && List.for_all
           (fun i -> i = position || Id.digit updated i = Id.digit id i)
           (List.init 32 Fun.id))

(* ---------- Leaf set ---------- *)

let ring_fixture n seed =
  let rng = Prng.of_seed seed in
  let ids = Array.init n (fun _ -> Id.random rng) in
  let sorted = Array.copy ids in
  Array.sort Id.compare sorted;
  (ids, sorted)

let test_leaf_set_members () =
  let _, sorted = ring_fixture 64 21L in
  let owner = sorted.(10) in
  let ls = Leaf_set.build ~owner ~sorted_ids:sorted ~half_size:4 in
  check Alcotest.int "size" 8 (Leaf_set.size ls);
  check Alcotest.bool "owner not member" false
    (List.exists (Id.equal owner) (Leaf_set.members ls));
  (* Clockwise members are exactly the next 4 ids on the ring. *)
  let expected = Array.to_list (Array.sub sorted 11 4) in
  check (Alcotest.list Alcotest.string) "clockwise" (List.map Id.to_hex expected)
    (List.map Id.to_hex (Array.to_list (Leaf_set.clockwise ls)))

let test_leaf_set_wraparound () =
  let _, sorted = ring_fixture 16 22L in
  let owner = sorted.(15) in
  let ls = Leaf_set.build ~owner ~sorted_ids:sorted ~half_size:3 in
  check Alcotest.string "wraps to ring start" (Id.to_hex sorted.(0))
    (Id.to_hex (Leaf_set.clockwise ls).(0))

let test_leaf_set_estimates_network_size () =
  let _, sorted = ring_fixture 4096 23L in
  let estimates =
    Array.init 20 (fun i ->
        let ls = Leaf_set.build ~owner:sorted.(i * 100) ~sorted_ids:sorted ~half_size:8 in
        Leaf_set.estimate_network_size ls)
  in
  let mean = Descriptive.mean estimates in
  check Alcotest.bool
    (Printf.sprintf "estimate %.0f within 2x of 4096" mean)
    true
    (mean > 2048. && mean < 8192.)

let test_leaf_set_spacing_check () =
  let _, sorted = ring_fixture 4096 24L in
  let local = Leaf_set.build ~owner:sorted.(0) ~sorted_ids:sorted ~half_size:8 in
  let honest = Leaf_set.build ~owner:sorted.(2000) ~sorted_ids:sorted ~half_size:8 in
  check Alcotest.bool "honest accepted" true
    (Leaf_set.spacing_check ~gamma:2. ~local ~peer:honest = `Acceptable);
  (* An attacker advertising every 8th identifier: ~8x the honest spacing. *)
  let sparse_sorted = Array.init 512 (fun i -> sorted.(8 * i)) in
  let sparse = Leaf_set.build ~owner:sparse_sorted.(100) ~sorted_ids:sparse_sorted ~half_size:8 in
  check Alcotest.bool "sparse flagged" true
    (Leaf_set.spacing_check ~gamma:2. ~local ~peer:sparse = `Suspicious)

let test_leaf_set_covers_and_closest () =
  let _, sorted = ring_fixture 64 25L in
  let owner = sorted.(30) in
  let ls = Leaf_set.build ~owner ~sorted_ids:sorted ~half_size:4 in
  check Alcotest.bool "covers a near id" true (Leaf_set.covers ls sorted.(31));
  check Alcotest.string "closest to member is member" (Id.to_hex sorted.(31))
    (Id.to_hex (Leaf_set.closest_member ls sorted.(31)))

(* ---------- Secure jump tables ---------- *)

(* Every filled slot of node [v]'s table as (row, col, peer id). *)
let iter_slots overlay v f =
  for row = 0 to Id.digits - 1 do
    for col = 0 to Id.base - 1 do
      Option.iter
        (fun peer -> f ~row ~col (Pastry.node overlay peer).Pastry.id)
        (Pastry.slot overlay v ~row ~col)
    done
  done

let test_secure_table_prefix_constraint () =
  let _, sorted = ring_fixture 256 26L in
  let overlay = Pastry.build sorted in
  let owner = sorted.(77) in
  iter_slots overlay 77 (fun ~row ~col peer ->
      check Alcotest.bool "never the owner" false (Id.equal peer owner);
      check Alcotest.int
        (Printf.sprintf "row %d prefix" row)
        row
        (min row (Id.shared_prefix_length owner peer));
      check Alcotest.int (Printf.sprintf "row %d col" row) col (Id.digit peer row))

let test_secure_table_picks_closest_to_point () =
  let _, sorted = ring_fixture 256 27L in
  let overlay = Pastry.build sorted in
  let owner = sorted.(42) in
  iter_slots overlay 42 (fun ~row ~col peer ->
      let point = Id.with_digit owner row col in
      let peer_distance = Id.ring_distance peer point in
      (* No other qualifying node may be strictly closer to the point. *)
      Array.iter
        (fun other ->
          if
            (not (Id.equal other owner))
            && Id.shared_prefix_length other owner >= row
            && Id.digit other row = col
          then
            check Alcotest.bool "constrained choice is closest" false
              (Id.compare (Id.ring_distance other point) peer_distance < 0))
        sorted)

let test_next_hop_improves_prefix () =
  let _, sorted = ring_fixture 128 29L in
  let overlay = Pastry.build sorted in
  let owner = sorted.(0) and dest = sorted.(100) in
  let row = Id.shared_prefix_length owner dest in
  match Pastry.slot overlay 0 ~row ~col:(Id.digit dest row) with
  | None -> () (* possible when the needed slot is empty *)
  | Some peer ->
      check Alcotest.bool "longer shared prefix" true
        (Id.shared_prefix_length (Pastry.node overlay peer).Pastry.id dest
        > Id.shared_prefix_length owner dest)

(* ---------- Jump table model ---------- *)

let test_fill_probability_monotone () =
  let n = 10_000 in
  let previous = ref 2. in
  for row = 0 to Id.digits - 1 do
    let p = Jump_table_model.fill_probability ~n ~row in
    check Alcotest.bool "decreasing in row" true (p <= !previous +. 1e-12);
    check Alcotest.bool "probability" true (p >= 0. && p <= 1.);
    previous := p
  done

let test_fill_probability_small_world () =
  (* N=2: the only other node fills a row-0 slot with probability 1/16 per
     column... equivalently Pr(filled) = (1/16)^1 for the matching column;
     Equation 1 gives 1 - (1 - 1/16)^1 = 1/16 for row 0. *)
  check (Alcotest.float 1e-12) "n=2 row 0" (1. /. 16.)
    (Jump_table_model.fill_probability ~n:2 ~row:0);
  check (Alcotest.float 1e-12) "n=1 empty" 0. (Jump_table_model.fill_probability ~n:1 ~row:0)

let test_expected_entries_paper_value () =
  (* Section 4.4: ~77 entries at 100k nodes with 16 leaves. *)
  let entries = Jump_table_model.expected_routing_entries ~n:100_000 ~leaf_set_size:16 in
  check Alcotest.bool (Printf.sprintf "entries %.1f in [74, 80]" entries) true
    (entries > 74. && entries < 80.)

let test_model_matches_monte_carlo () =
  let n = 1500 in
  let rng = Prng.of_seed 30L in
  let model = Jump_table_model.model ~n in
  let samples = Jump_table_model.monte_carlo_occupancy ~rng ~n ~trials:30 in
  let slots = float_of_int (Id.digits * Id.base) in
  let mc_mean = Descriptive.mean samples in
  let model_mean = model.Poisson_binomial.mu_phi /. slots in
  check (Alcotest.float 0.01) "analytic ~ empirical" model_mean mc_mean

(* The ring-based Monte Carlo count equals the oracle's occupancy on the
   same draw: ids drawn in index order, then the owner. *)
let prop_monte_carlo_matches_oracle =
  QCheck.Test.make ~name:"Monte Carlo occupancy = oracle occupancy on the same draw" ~count:40
    QCheck.(triple (int_range 2 3000) (int_range 1 3) (int_bound 10_000))
    (fun (n, trials, seed) ->
      let got =
        Jump_table_model.monte_carlo_occupancy ~rng:(Prng.of_seed (Int64.of_int seed)) ~n ~trials
      in
      let rng = Prng.of_seed (Int64.of_int seed) in
      let expect =
        Array.init trials (fun _ ->
            let sorted = Array.init n (fun i -> (Id.random rng, i)) in
            Array.sort (fun (a, _) (b, _) -> Id.compare a b) sorted;
            let owner, _ = sorted.(Prng.int rng n) in
            float_of_int (Table_oracle.occupancy (Table_oracle.build_secure ~owner ~sorted))
            /. float_of_int (Id.digits * Id.base))
      in
      got = expect)

(* ---------- Density test ---------- *)

let test_density_check_rule () =
  check Alcotest.bool "sparse flagged" true
    (Density_test.check ~gamma:1.2 ~local_occupancy:60 ~peer_occupancy:40 = `Suspicious);
  check Alcotest.bool "similar accepted" true
    (Density_test.check ~gamma:1.2 ~local_occupancy:60 ~peer_occupancy:55 = `Acceptable)

let test_density_error_rates_paper_band () =
  (* Paper Section 4.1: at c=20% without suppression the false negative is
     ~3.5%; our analytic pipeline must land in the same band. *)
  let gammas = Array.init 101 (fun i -> 1.0 +. (0.01 *. float_of_int i)) in
  let _, rates =
    Density_test.optimal_gamma ~gammas
      { Density_test.n = 100_000; colluding_fraction = 0.2; suppression = false }
  in
  check Alcotest.bool
    (Printf.sprintf "FN %.3f < 0.10" rates.Density_test.false_negative)
    true
    (rates.Density_test.false_negative < 0.10);
  check Alcotest.bool
    (Printf.sprintf "FP %.3f < 0.10" rates.Density_test.false_positive)
    true
    (rates.Density_test.false_positive < 0.10)

let test_density_suppression_hurts () =
  let scenario suppression =
    { Density_test.n = 100_000; colluding_fraction = 0.2; suppression }
  in
  let gammas = Array.init 51 (fun i -> 1.0 +. (0.02 *. float_of_int i)) in
  let _, plain = Density_test.optimal_gamma ~gammas (scenario false) in
  let _, attacked = Density_test.optimal_gamma ~gammas (scenario true) in
  check Alcotest.bool "suppression raises total error" true
    (attacked.Density_test.false_positive +. attacked.Density_test.false_negative
    > plain.Density_test.false_positive +. plain.Density_test.false_negative)

let prop_false_positive_decreases_in_gamma =
  QCheck.Test.make ~name:"false positives fall as gamma grows" ~count:20
    QCheck.(int_range 1_000 50_000)
    (fun n ->
      let model = Jump_table_model.model ~n in
      let fp gamma = Density_test.false_positive_rate ~gamma ~local:model ~peer:model in
      fp 1.0 >= fp 1.3 && fp 1.3 >= fp 1.8)

(* ---------- Pastry ---------- *)

let pastry_fixture n seed =
  let rng = Prng.of_seed seed in
  let ids = Array.init n (fun _ -> Id.random rng) in
  (ids, Pastry.build ~leaf_half_size:4 ids)

let test_pastry_route_reaches_root () =
  let ids, overlay = pastry_fixture 200 40L in
  let rng = Prng.of_seed 41L in
  for _ = 1 to 50 do
    let from = Prng.int rng 200 in
    let dest = Id.random rng in
    let route = Pastry.route overlay ~from ~dest in
    let last = List.nth route (List.length route - 1) in
    check Alcotest.int "terminates at the key's root" (Pastry.numerically_closest overlay dest)
      last;
    check Alcotest.int "starts at source" from (List.hd route)
  done;
  ignore ids

let test_pastry_route_to_member_id () =
  let ids, overlay = pastry_fixture 100 42L in
  let route = Pastry.route overlay ~from:3 ~dest:ids.(42) in
  check Alcotest.int "exact member is its own root" 42 (List.nth route (List.length route - 1))

let test_pastry_hop_count_logarithmic () =
  let _, overlay = pastry_fixture 512 43L in
  let rng = Prng.of_seed 44L in
  let total = ref 0 and count = 60 in
  for _ = 1 to count do
    let from = Prng.int rng 512 in
    let dest = Id.random rng in
    total := !total + (List.length (Pastry.route overlay ~from ~dest) - 1)
  done;
  let mean = float_of_int !total /. float_of_int count in
  (* log_16(512) ~ 2.25; leaf-set hops add a little. *)
  check Alcotest.bool (Printf.sprintf "mean hops %.2f < 5" mean) true (mean < 5.)

let test_pastry_routing_peers () =
  let _, overlay = pastry_fixture 128 45L in
  let peers = Pastry.routing_peers overlay 0 in
  check Alcotest.bool "has peers" true (Array.length peers > 8);
  check Alcotest.bool "self not a peer" false (Array.exists (( = ) 0) peers);
  let sorted = Array.copy peers in
  Array.sort Int.compare sorted;
  check Alcotest.bool "deduplicated" true (sorted = peers)

let prop_pastry_routes_converge =
  QCheck.Test.make
    ~name:"routing always terminates at the key's root without revisiting a node" ~count:30
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (seed, key_seed) ->
      let _, overlay = pastry_fixture 150 (Int64.of_int seed) in
      let dest = Id.random (Prng.of_seed (Int64.of_int key_seed)) in
      let route = Pastry.route overlay ~from:0 ~dest in
      let last = List.nth route (List.length route - 1) in
      last = Pastry.numerically_closest overlay dest
      && List.length (List.sort_uniq Int.compare route) = List.length route)

(* ---------- Freshness ---------- *)

let test_freshness_validate () =
  let pki = Pki.create ~seed:50L in
  let holder = Id.random (Prng.of_seed 51L) in
  let cert, secret = Pki.issue pki ~address:"10.0.0.1" ~node_id:(Id.to_hex holder) in
  let stamp = Freshness.issue ~holder ~secret ~public:cert.Pki.subject_key ~now:100. in
  check Alcotest.bool "fresh now" true
    (Freshness.validate pki ~now:150. ~max_age:600. ~expected_holder:holder stamp);
  check Alcotest.bool "stale" false
    (Freshness.validate pki ~now:800. ~max_age:600. ~expected_holder:holder stamp);
  check Alcotest.bool "future-dated rejected" false
    (Freshness.is_fresh ~now:50. ~max_age:600. stamp);
  let other = Id.random (Prng.of_seed 52L) in
  check Alcotest.bool "wrong holder (inflation attack)" false
    (Freshness.validate pki ~now:150. ~max_age:600. ~expected_holder:other stamp)


(* ---------- Chord ---------- *)

module Chord = Concilium_overlay.Chord

let test_id_add_power_of_two () =
  let zero = Id.zero in
  check Alcotest.string "2^0" "00000000000000000000000000000001"
    (Id.to_hex (Id.add_power_of_two zero 0));
  check Alcotest.string "2^8" "00000000000000000000000000000100"
    (Id.to_hex (Id.add_power_of_two zero 8));
  check Alcotest.string "2^127" "80000000000000000000000000000000"
    (Id.to_hex (Id.add_power_of_two zero 127));
  (* Carry propagation and wraparound. *)
  let all_f = Id.of_hex "ffffffffffffffffffffffffffffffff" in
  check Alcotest.string "wrap" "00000000000000000000000000000000"
    (Id.to_hex (Id.add_power_of_two all_f 0))

let test_id_clockwise_interval () =
  let at hex = Id.of_hex hex in
  let lo = at "10000000000000000000000000000000" in
  let hi = at "20000000000000000000000000000000" in
  check Alcotest.bool "inside" true
    (Id.in_clockwise_interval (at "18000000000000000000000000000000") ~lo ~hi);
  check Alcotest.bool "lo inclusive" true (Id.in_clockwise_interval lo ~lo ~hi);
  check Alcotest.bool "hi exclusive" false (Id.in_clockwise_interval hi ~lo ~hi);
  check Alcotest.bool "outside" false (Id.in_clockwise_interval Id.zero ~lo ~hi);
  (* Wrapping interval: [hi, lo) contains zero. *)
  check Alcotest.bool "wrapping" true (Id.in_clockwise_interval Id.zero ~lo:hi ~hi:lo);
  check Alcotest.bool "empty" false (Id.in_clockwise_interval lo ~lo ~hi:lo)

let chord_fixture n seed =
  let rng = Prng.of_seed seed in
  let ids = Array.init n (fun _ -> Id.random rng) in
  (ids, Chord.build ids)

let test_chord_successors_ascend () =
  let _, overlay = chord_fixture 64 140L in
  for v = 0 to 63 do
    let node = Chord.node overlay v in
    let previous = ref node.Chord.id in
    Array.iter
      (fun entry ->
        (* Each successor is strictly clockwise of the previous one. *)
        let step = Id.clockwise_distance !previous entry.Chord.peer in
        check Alcotest.bool "strict clockwise order" true (Id.compare step Id.zero > 0);
        previous := entry.Chord.peer)
      node.Chord.successors
  done

let test_chord_route_reaches_owner () =
  let _, overlay = chord_fixture 200 141L in
  let rng = Prng.of_seed 142L in
  for _ = 1 to 50 do
    let from = Prng.int rng 200 in
    let dest = Id.random rng in
    let route = Chord.route overlay ~from ~dest in
    check Alcotest.int "terminates at the key's successor"
      (Chord.successor_of_key overlay dest)
      (List.nth route (List.length route - 1))
  done

let test_chord_logarithmic_routing () =
  let _, overlay = chord_fixture 1024 143L in
  let mean = Chord.mean_route_length overlay ~trials:100 ~rng:(Prng.of_seed 144L) in
  (* Chord averages ~(1/2) log2 N = 5 hops; allow generous slack. *)
  check Alcotest.bool (Printf.sprintf "mean hops %.2f in [2.5, 8]" mean) true
    (mean > 2.5 && mean < 8.)

let test_chord_secure_fingers_are_first_successors () =
  let _, overlay = chord_fixture 128 145L in
  let node = Chord.node overlay 0 in
  Array.iteri
    (fun k finger ->
      match finger with
      | None -> ()
      | Some entry ->
          let target = Id.add_power_of_two node.Chord.id k in
          (* No member may lie strictly between the target and the finger. *)
          check Alcotest.int "finger is the target's successor"
            (Chord.successor_of_key overlay target)
            entry.Chord.node)
    node.Chord.fingers

let test_chord_occupancy_model_tracks_mc () =
  let rng = Prng.of_seed 148L in
  let n = 700 in
  let expected = (Chord.Model.occupancy_model ~n).Poisson_binomial.mu_phi in
  let model_mean = expected /. float_of_int Chord.finger_count in
  let samples = Chord.Model.monte_carlo_occupancy ~rng ~n ~trials:20 in
  let mc_mean = Array.fold_left ( +. ) 0. samples /. 20. in
  check (Alcotest.float 0.012) "model ~ MC" model_mean mc_mean;
  (* Expected distinct intervals is ~log2 N. *)
  check (Alcotest.float 2.) "~log2 N" (log (float_of_int n) /. log 2.) expected


(* ---------- Secure routing ---------- *)

module Secure_routing = Concilium_overlay.Secure_routing

let test_secure_routing_no_faults () =
  let _, overlay = pastry_fixture 150 160L in
  let rng = Prng.of_seed 161L in
  let dest = Id.random rng in
  let attempt = Secure_routing.standard_delivery overlay ~from:0 ~dest ~faulty:(fun _ -> false) in
  check Alcotest.bool "clean network delivers" true attempt.Secure_routing.delivered;
  let result = Secure_routing.redundant_route overlay ~from:0 ~dest ~faulty:(fun _ -> false) in
  check Alcotest.bool "redundant too" true result.Secure_routing.delivered;
  check Alcotest.int "direct copy suffices" 1 result.Secure_routing.copies_sent

let test_secure_routing_routes_around_faulty_hop () =
  let _, overlay = pastry_fixture 150 162L in
  let rng = Prng.of_seed 163L in
  (* Find a key whose direct route has a faulty interior hop. *)
  let rec search attempts =
    if attempts = 0 then None
    else begin
      let dest = Id.random rng in
      let hops = Pastry.route overlay ~from:0 ~dest in
      if List.length hops >= 3 then Some (dest, List.nth hops 1) else search (attempts - 1)
    end
  in
  match search 2000 with
  | None -> Alcotest.fail "no multi-hop key found"
  | Some (dest, bad_hop) ->
      let faulty v = v = bad_hop in
      let direct = Secure_routing.standard_delivery overlay ~from:0 ~dest ~faulty in
      check Alcotest.bool "standard route fails" false direct.Secure_routing.delivered;
      let redundant = Secure_routing.redundant_route overlay ~from:0 ~dest ~faulty in
      check Alcotest.bool "redundant route survives" true redundant.Secure_routing.delivered;
      check Alcotest.bool "used extra copies" true (redundant.Secure_routing.copies_sent > 1)

let test_secure_routing_castro_threshold () =
  let _, overlay = pastry_fixture 200 164L in
  let rng = Prng.of_seed 165L in
  let rate mode fraction =
    Secure_routing.delivery_probability overlay ~rng ~faulty_fraction:fraction ~trials:120 ~mode
  in
  (* Castro: redundant routing delivers w.h.p. with >= 75% honest nodes. *)
  let redundant_at_25 = rate `Redundant 0.25 in
  check Alcotest.bool
    (Printf.sprintf "redundant at 25%% faulty: %.3f > 0.97" redundant_at_25)
    true (redundant_at_25 > 0.97);
  let standard_at_25 = rate `Standard 0.25 in
  check Alcotest.bool
    (Printf.sprintf "standard at 25%% faulty: %.3f markedly worse" standard_at_25)
    true
    (standard_at_25 < redundant_at_25 -. 0.05)


(* ---------- Id helpers for the flat core ---------- *)

let prop_midpoint_orders =
  QCheck.Test.make ~name:"midpoint lies between its arguments" ~count:300
    QCheck.(pair arbitrary_id arbitrary_id)
    (fun (a, b) ->
      let lo, hi = if Id.compare a b <= 0 then (a, b) else (b, a) in
      let m = Id.midpoint lo hi in
      Id.compare lo m <= 0 && Id.compare m hi <= 0)

let prop_compare_substituted_agrees =
  QCheck.Test.make ~name:"compare_substituted = compare of with_digit" ~count:300
    QCheck.(quad arbitrary_id (int_bound 31) (int_bound 15) arbitrary_id)
    (fun (a, index, digit, b) ->
      Id.compare_substituted a ~index ~digit b = Id.compare (Id.with_digit a index digit) b)

let prop_prefix_bounds_bracket =
  QCheck.Test.make ~name:"prefix_bounds bracket exactly the shared-prefix ids" ~count:300
    QCheck.(triple arbitrary_id (int_bound 32) arbitrary_id)
    (fun (anchor, digits_shared, probe) ->
      let lo, hi = Id.prefix_bounds anchor ~digits_shared in
      let inside = Id.compare lo probe <= 0 && Id.compare probe hi <= 0 in
      let shares = Id.shared_prefix_length anchor probe >= digits_shared in
      (* shares prefix => inside the bounds, and the bounds themselves
         share the prefix *)
      ((not shares) || inside)
      && Id.shared_prefix_length anchor lo >= digits_shared
      && Id.shared_prefix_length anchor hi >= digits_shared)

let test_id_floor_log2 () =
  check Alcotest.int "zero" (-1) (Id.floor_log2 Id.zero);
  check Alcotest.int "one" 0 (Id.floor_log2 (Id.of_hex "00000000000000000000000000000001"));
  check Alcotest.int "top bit" 127 (Id.floor_log2 (Id.of_hex "80000000000000000000000000000000"));
  check Alcotest.int "mixed" 68 (Id.floor_log2 (Id.of_hex "00000000000000130000000000000000"))

(* ---------- Incremental secure tables vs the full-rebuild oracle ---------- *)

module Ring = Concilium_overlay.Ring
module Inc_table = Concilium_overlay.Inc_table
module Flat_chord = Concilium_overlay.Flat_chord
module Chaos = Concilium_netsim.Chaos

let distinct_ids ~rng n =
  let rec draw acc k =
    if k = 0 then acc
    else begin
      let id = Id.random rng in
      if List.exists (Id.equal id) acc then draw acc k else draw (id :: acc) (k - 1)
    end
  in
  Array.of_list (draw [] n)

let alive_pairs ring =
  let acc = ref [] in
  for i = Ring.size ring - 1 downto 0 do
    if Ring.is_alive ring i then acc := (Ring.id ring i, i) :: !acc
  done;
  Array.of_list !acc

let ring_of_ids ids =
  let sorted = Array.copy ids in
  Array.sort Id.compare sorted;
  Ring.of_sorted_ids sorted

(* Byte-equivalence of the maintained table against the oracle over the
   current alive membership, for every owner (dead ones included) and every
   slot — materialised rows and on-demand deep rows alike. *)
let assert_tables_match ~ring tbl context =
  let sorted = alive_pairs ring in
  for owner = 0 to Ring.size ring - 1 do
    let oracle = Table_oracle.build_secure ~owner:(Ring.id ring owner) ~sorted in
    for row = 0 to Id.digits - 1 do
      for col = 0 to Id.base - 1 do
        let expect =
          match Table_oracle.get oracle ~row ~col with
          | None -> -1
          | Some e -> e.Table_oracle.node
        in
        let got = Inc_table.entry tbl ~owner ~row ~col in
        if got <> expect then
          Alcotest.failf "%s: owner %d row %d col %d: oracle %d, incremental %d" context owner
            row col expect got
      done
    done
  done

(* A churn schedule derived from the chaos DSL: sample a crash-only plan
   and read each Node_crash as leave-at-start / rejoin-at-end. *)
let chaos_churn_schedule ~seed ~nodes ~horizon =
  let rng = Prng.of_seed seed in
  let config = { Chaos.quiet with Chaos.crashes_per_hour = 60.; crash_mean_duration = 120. } in
  let plan = Chaos.sample ~rng ~config ~links:[||] ~nodes ~cuts:[||] ~horizon in
  let events =
    List.concat_map
      (fun fault ->
        match fault with
        | Chaos.Node_crash { node; start; duration } ->
            [ (start, `Leave, node); (start +. duration, `Join, node) ]
        | _ -> [])
      plan
  in
  List.sort
    (fun (ta, _, na) (tb, _, nb) ->
      match Float.compare ta tb with 0 -> Int.compare na nb | c -> c)
    events

let prop_incremental_matches_oracle =
  QCheck.Test.make ~name:"incremental table = rebuild oracle under chaos churn" ~count:8
    QCheck.(pair (int_range 4 28) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Prng.of_seed (Int64.of_int (77 + seed)) in
      let ring = ring_of_ids (distinct_ids ~rng n) in
      let tbl = Inc_table.build ring in
      assert_tables_match ~ring tbl "initial build";
      let schedule = chaos_churn_schedule ~seed:(Int64.of_int (13 + seed)) ~nodes:n ~horizon:900. in
      let applied = ref 0 in
      List.iter
        (fun (_, kind, node) ->
          let acted =
            !applied < 24
            &&
            match kind with
            | `Leave ->
                if Ring.is_alive ring node && Ring.alive_count ring > 1 then begin
                  ignore (Inc_table.apply_leave tbl node);
                  true
                end
                else false
            | `Join ->
                if not (Ring.is_alive ring node) then begin
                  ignore (Inc_table.apply_join tbl node);
                  true
                end
                else false
          in
          if acted then begin
            incr applied;
            assert_tables_match ~ring tbl (Printf.sprintf "after event %d" !applied)
          end)
        schedule;
      (* The materialised rows must also agree with the from-scratch path. *)
      for owner = 0 to Ring.size ring - 1 do
        let disagreed = Inc_table.rebuild_owner tbl owner in
        if disagreed <> 0 then
          Alcotest.failf "rebuild_owner %d found %d stale slots" owner disagreed
      done;
      !applied >= 0)

(* The parallel sweep-build must be byte-identical to the sequential one:
   slot values are pure functions of the ring, and the (row, group, class)
   task decomposition writes disjoint regions for any domain count. *)
let prop_parallel_build_matches_sequential =
  QCheck.Test.make ~name:"parallel sweep-build = sequential build, any domain count" ~count:4
    QCheck.(pair (int_range 2 300) (int_bound 1000))
    (fun (n, seed) ->
      let make_ring () =
        let rng = Prng.of_seed (Int64.of_int (6100 + seed)) in
        let ring = ring_of_ids (distinct_ids ~rng n) in
        let kill = Prng.of_seed (Int64.of_int (6200 + seed)) in
        for _ = 1 to n / 5 do
          let v = Prng.int kill n in
          if Ring.alive_count ring > 2 then Ring.set_dead ring v
        done;
        ring
      in
      let reference = Inc_table.checksum (Inc_table.build (make_ring ())) in
      List.for_all
        (fun domains ->
          Concilium_util.Pool.with_pool ~domains (fun pool ->
              Inc_table.checksum (Inc_table.build ~pool (make_ring ())) = reference))
        [ 2; 3; 8 ])

(* ---------- Dynamic membership ---------- *)

(* A single join or leave delta leaves every table — all 32 rows, dead
   owners included — exactly as a fresh sweep-build over the new alive set
   would. [kill] marks the positions dead before building. *)
let build_table ids ~kill =
  let ring = ring_of_ids ids in
  List.iter (Ring.set_dead ring) kill;
  Inc_table.build ~rows:Id.digits ring

let prop_join_equals_rebuild =
  QCheck.Test.make ~name:"incremental join equals a fresh build" ~count:25
    QCheck.(pair (int_range 0 10_000) (int_bound 60))
    (fun (seed, joiner) ->
      let ids = distinct_ids ~rng:(Prng.of_seed (Int64.of_int seed)) 61 in
      let table = build_table ids ~kill:[ joiner ] in
      ignore (Inc_table.apply_join table joiner);
      let fresh = build_table ids ~kill:[] in
      Inc_table.checksum table = Inc_table.checksum fresh)

let prop_leave_equals_rebuild =
  QCheck.Test.make ~name:"incremental departure equals a fresh build" ~count:25
    QCheck.(pair (int_range 0 10_000) (int_bound 59))
    (fun (seed, victim) ->
      let ids = distinct_ids ~rng:(Prng.of_seed (Int64.of_int seed)) 60 in
      let table = build_table ids ~kill:[] in
      ignore (Inc_table.apply_leave table victim);
      let fresh = build_table ids ~kill:[ victim ] in
      Inc_table.checksum table = Inc_table.checksum fresh)

let test_join_rejects_alive_node () =
  let ids = distinct_ids ~rng:(Prng.of_seed 170L) 50 in
  let table = build_table ids ~kill:[] in
  Alcotest.check_raises "duplicate" (Invalid_argument "Inc_table.apply_join: node is alive")
    (fun () -> ignore (Inc_table.apply_join table 7))

(* ---------- Flat (universe-indexed) routing ---------- *)

let prop_flat_pastry_routes_to_root =
  QCheck.Test.make ~name:"flat pastry route delivers to the numerically closest node"
    ~count:6
    QCheck.(pair (int_bound 1000) (int_bound 1000))
    (fun (seed, churn_seed) ->
      let rng = Prng.of_seed (Int64.of_int (3000 + seed)) in
      let n = 600 in
      let ring = ring_of_ids (distinct_ids ~rng n) in
      let tbl = Inc_table.build ring in
      (* Kill a handful of nodes through the incremental path first. *)
      let churn_rng = Prng.of_seed (Int64.of_int (4000 + churn_seed)) in
      for _ = 1 to 25 do
        let v = Prng.int churn_rng n in
        if Ring.is_alive ring v then ignore (Inc_table.apply_leave tbl v)
      done;
      let ok = ref 0 and total = 20 in
      for _ = 1 to total do
        let dest = Id.random rng in
        let src = ref (Prng.int rng n) in
        while not (Ring.is_alive ring !src) do
          src := Prng.int rng n
        done;
        let root = Inc_table.numerically_closest tbl dest in
        let final, hops, _ = Inc_table.route tbl ~leaf_half:8 ~src:!src ~dest in
        if final = root && hops <= (2 * Id.digits) + 32 then incr ok
      done;
      !ok = total)

let prop_flat_chord_routes_to_owner =
  QCheck.Test.make ~name:"flat chord route reaches the key's owner in O(log n) hops" ~count:6
    QCheck.(pair (int_bound 1000) (int_range 64 800))
    (fun (seed, n) ->
      let rng = Prng.of_seed (Int64.of_int (5000 + seed)) in
      let ring = ring_of_ids (distinct_ids ~rng n) in
      (* Random dead minority. *)
      for _ = 1 to n / 5 do
        let v = Prng.int rng n in
        if Ring.alive_count ring > 2 then Ring.set_dead ring v
      done;
      let chord = Flat_chord.create ring in
      let ok = ref true in
      for _ = 1 to 30 do
        let dest = Id.random rng in
        let src = ref (Prng.int rng n) in
        while not (Ring.is_alive ring !src) do
          src := Prng.int rng n
        done;
        let owner = Flat_chord.owner_of_key chord dest in
        let final, hops, _ = Flat_chord.route chord ~src:!src ~dest in
        if final <> owner || hops > 64 then ok := false
      done;
      !ok)

(* ---------- Chord O(log n) forwarding vs the linear reference ---------- *)

let prop_chord_next_hop_matches_reference =
  QCheck.Test.make ~name:"chord next_hop = linear-scan reference" ~count:12
    QCheck.(pair (int_bound 1000) (int_range 2 120))
    (fun (seed, n) ->
      let rng = Prng.of_seed (Int64.of_int (6000 + seed)) in
      let ids = distinct_ids ~rng n in
      let overlay = Chord.build ids in
      let ok = ref true in
      for _ = 1 to 60 do
        let from = Prng.int rng n in
        let dest =
          (* Mix arbitrary keys with exact member ids (boundary cases). *)
          if Prng.bool rng then Id.random rng else ids.(Prng.int rng n)
        in
        let fast = Chord.next_hop overlay ~from ~dest in
        let slow = Chord.next_hop_reference overlay ~from ~dest in
        if not (Option.equal Int.equal fast slow) then ok := false
      done;
      !ok)

let suites =
  [
    ( "overlay.id",
      [
        Alcotest.test_case "hex roundtrip" `Quick test_id_hex_roundtrip;
        Alcotest.test_case "digit access" `Quick test_id_digits;
        Alcotest.test_case "shared prefix" `Quick test_id_prefix;
        Alcotest.test_case "ring distance" `Quick test_id_ring_distance;
        Alcotest.test_case "succ" `Quick test_id_succ;
        qtest prop_ring_distance_symmetric;
        qtest prop_clockwise_sum_is_zero;
        qtest prop_with_digit_sets_digit;
      ] );
    ( "overlay.leaf_set",
      [
        Alcotest.test_case "members" `Quick test_leaf_set_members;
        Alcotest.test_case "wraparound" `Quick test_leaf_set_wraparound;
        Alcotest.test_case "network size estimate" `Quick test_leaf_set_estimates_network_size;
        Alcotest.test_case "Castro spacing check" `Quick test_leaf_set_spacing_check;
        Alcotest.test_case "covers and closest" `Quick test_leaf_set_covers_and_closest;
      ] );
    ( "overlay.routing_table",
      [
        Alcotest.test_case "secure prefix constraint" `Quick test_secure_table_prefix_constraint;
        Alcotest.test_case "secure closest-to-point" `Quick
          test_secure_table_picks_closest_to_point;
        Alcotest.test_case "next hop improves prefix" `Quick test_next_hop_improves_prefix;
      ] );
    ( "overlay.jump_table_model",
      [
        Alcotest.test_case "fill probability monotone" `Quick test_fill_probability_monotone;
        Alcotest.test_case "tiny-world closed forms" `Quick test_fill_probability_small_world;
        Alcotest.test_case "paper's 77-entry table" `Quick test_expected_entries_paper_value;
        Alcotest.test_case "model matches Monte Carlo" `Quick test_model_matches_monte_carlo;
        qtest prop_monte_carlo_matches_oracle;
      ] );
    ( "overlay.density_test",
      [
        Alcotest.test_case "gamma rule" `Quick test_density_check_rule;
        Alcotest.test_case "paper error band at c=20%" `Quick test_density_error_rates_paper_band;
        Alcotest.test_case "suppression attacks hurt" `Quick test_density_suppression_hurts;
        qtest prop_false_positive_decreases_in_gamma;
      ] );
    ( "overlay.pastry",
      [
        Alcotest.test_case "routes reach the root" `Quick test_pastry_route_reaches_root;
        Alcotest.test_case "routes to member ids" `Quick test_pastry_route_to_member_id;
        Alcotest.test_case "logarithmic hop count" `Quick test_pastry_hop_count_logarithmic;
        Alcotest.test_case "routing peers" `Quick test_pastry_routing_peers;
        qtest prop_pastry_routes_converge;
      ] );
    ("overlay.freshness", [ Alcotest.test_case "stamp validation" `Quick test_freshness_validate ]);
    ( "overlay.membership",
      [
        qtest prop_join_equals_rebuild;
        qtest prop_leave_equals_rebuild;
        Alcotest.test_case "duplicate join rejected" `Quick test_join_rejects_alive_node;
      ] );
    ( "overlay.secure_routing",
      [
        Alcotest.test_case "clean network" `Quick test_secure_routing_no_faults;
        Alcotest.test_case "routes around a faulty hop" `Quick
          test_secure_routing_routes_around_faulty_hop;
        Alcotest.test_case "Castro 75%-honest threshold" `Slow
          test_secure_routing_castro_threshold;
      ] );
    ( "overlay.chord",
      [
        Alcotest.test_case "id add_power_of_two" `Quick test_id_add_power_of_two;
        Alcotest.test_case "clockwise intervals" `Quick test_id_clockwise_interval;
        Alcotest.test_case "successor lists ascend" `Quick test_chord_successors_ascend;
        Alcotest.test_case "routes reach the owner" `Quick test_chord_route_reaches_owner;
        Alcotest.test_case "logarithmic routing" `Quick test_chord_logarithmic_routing;
        Alcotest.test_case "secure fingers unique" `Quick
          test_chord_secure_fingers_are_first_successors;
        Alcotest.test_case "occupancy model vs MC" `Quick test_chord_occupancy_model_tracks_mc;
        qtest prop_chord_next_hop_matches_reference;
      ] );
    ( "overlay.flat",
      [
        qtest prop_midpoint_orders;
        qtest prop_compare_substituted_agrees;
        qtest prop_prefix_bounds_bracket;
        Alcotest.test_case "floor_log2" `Quick test_id_floor_log2;
        qtest prop_incremental_matches_oracle;
        qtest prop_parallel_build_matches_sequential;
        qtest prop_flat_pastry_routes_to_root;
        qtest prop_flat_chord_routes_to_owner;
      ] );
  ]
