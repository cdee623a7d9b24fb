module Prng = Concilium_util.Prng
module Bitset = Concilium_util.Bitset
module Sorted = Concilium_util.Sorted
module Ring_buffer = Concilium_util.Ring_buffer
module Hashing = Concilium_util.Hashing

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---------- Prng ---------- *)

let test_prng_determinism () =
  let a = Prng.of_seed 42L and b = Prng.of_seed 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.int64 a) (Prng.int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.of_seed 1L and b = Prng.of_seed 2L in
  let distinct = ref false in
  for _ = 1 to 8 do
    if not (Int64.equal (Prng.int64 a) (Prng.int64 b)) then distinct := true
  done;
  check Alcotest.bool "streams differ" true !distinct

let test_prng_split_independent () =
  let parent = Prng.of_seed 7L in
  let child = Prng.split parent in
  let child_values = List.init 16 (fun _ -> Prng.int64 child) in
  let parent_values = List.init 16 (fun _ -> Prng.int64 parent) in
  check Alcotest.bool "no overlap" true (child_values <> parent_values)

let test_prng_int_bounds () =
  let rng = Prng.of_seed 3L in
  for _ = 1 to 1000 do
    let v = Prng.int rng 7 in
    check Alcotest.bool "in range" true (v >= 0 && v < 7)
  done

let test_prng_int_rejects_nonpositive () =
  let rng = Prng.of_seed 3L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_uniform_range () =
  let rng = Prng.of_seed 4L in
  for _ = 1 to 1000 do
    let u = Prng.uniform rng in
    check Alcotest.bool "in [0,1)" true (u >= 0. && u < 1.)
  done

let test_prng_uniform_mean () =
  let rng = Prng.of_seed 5L in
  let n = 20_000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Prng.uniform rng
  done;
  let mean = !total /. float_of_int n in
  check (Alcotest.float 0.01) "mean near 1/2" 0.5 mean

let test_prng_gaussian_moments () =
  let rng = Prng.of_seed 6L in
  let n = 50_000 in
  let sum = ref 0. and sum_sq = ref 0. in
  for _ = 1 to n do
    let x = Prng.gaussian rng ~mu:3. ~sigma:2. in
    sum := !sum +. x;
    sum_sq := !sum_sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let variance = (!sum_sq /. float_of_int n) -. (mean *. mean) in
  check (Alcotest.float 0.05) "mean" 3. mean;
  check (Alcotest.float 0.15) "variance" 4. variance

let test_prng_exponential_mean () =
  let rng = Prng.of_seed 8L in
  let n = 50_000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Prng.exponential rng ~rate:0.5
  done;
  check (Alcotest.float 0.05) "mean 1/rate" 2. (!total /. float_of_int n)

let test_sample_without_replacement () =
  let rng = Prng.of_seed 9L in
  let sample = Prng.sample_without_replacement rng 50 100 in
  check Alcotest.int "size" 50 (Array.length sample);
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun x ->
      check Alcotest.bool "in range" true (x >= 0 && x < 100);
      check Alcotest.bool "distinct" false (Hashtbl.mem seen x);
      Hashtbl.replace seen x ())
    sample

let test_sample_full_population () =
  let rng = Prng.of_seed 10L in
  let sample = Prng.sample_without_replacement rng 10 10 in
  let sorted = Array.copy sample in
  Array.sort Int.compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 10 Fun.id) sorted

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck.(pair small_int (small_list int))
    (fun (seed, list) ->
      let rng = Prng.of_seed (Int64.of_int seed) in
      let array = Array.of_list list in
      Prng.shuffle rng array;
      List.sort Int.compare (Array.to_list array) = List.sort Int.compare list)

(* ---------- Bitset ---------- *)

(* Members in ascending order, by linear scan. *)
let bitset_members s ~capacity = List.filter (Bitset.mem s) (List.init capacity Fun.id)

let bitset_of_list capacity members =
  let s = Bitset.create capacity in
  List.iter (Bitset.add s) members;
  s

let test_bitset_basic () =
  let s = Bitset.create 100 in
  check Alcotest.int "empty" 0 (Bitset.cardinal s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 99;
  check Alcotest.int "cardinal" 3 (Bitset.cardinal s);
  check Alcotest.bool "mem 63" true (Bitset.mem s 63);
  check Alcotest.bool "not mem 50" false (Bitset.mem s 50);
  Bitset.remove s 63;
  check Alcotest.bool "removed" false (Bitset.mem s 63);
  check (Alcotest.list Alcotest.int) "members" [ 0; 99 ] (bitset_members s ~capacity:100)

let test_bitset_out_of_range () =
  let s = Bitset.create 8 in
  Alcotest.check_raises "out of range" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.add s 8)

let prop_bitset_matches_list_set =
  QCheck.Test.make ~name:"bitset agrees with list-set semantics" ~count:200
    QCheck.(small_list (int_bound 63))
    (fun members ->
      let s = bitset_of_list 64 members in
      bitset_members s ~capacity:64 = List.sort_uniq Int.compare members
      && Bitset.cardinal s = List.length (List.sort_uniq Int.compare members))

let prop_bitset_directional_scans =
  QCheck.Test.make ~name:"next_member/prev_member match linear scans" ~count:300
    QCheck.(pair (small_list (int_bound 99)) (int_bound 99))
    (fun (members, i) ->
      let s = bitset_of_list 100 members in
      let next_ref =
        let rec scan j = if j > 99 then -1 else if Bitset.mem s j then j else scan (j + 1) in
        scan i
      and prev_ref =
        let rec scan j = if j < 0 then -1 else if Bitset.mem s j then j else scan (j - 1) in
        scan i
      in
      Bitset.next_member s i = next_ref && Bitset.prev_member s i = prev_ref)

(* ---------- Sorted ---------- *)

let test_sorted_bounds () =
  let a = [| 1; 3; 3; 5; 9 |] in
  check Alcotest.int "lower 3" 1 (Sorted.lower_bound compare a 3);
  check Alcotest.int "upper 3" 3 (Sorted.upper_bound compare a 3);
  check Alcotest.int "lower 0" 0 (Sorted.lower_bound compare a 0);
  check Alcotest.int "lower 10" 5 (Sorted.lower_bound compare a 10)

let prop_sorted_bounds_bracket =
  QCheck.Test.make ~name:"lower/upper bound bracket all equal elements" ~count:200
    QCheck.(pair (small_list (int_bound 20)) (int_bound 20))
    (fun (list, x) ->
      let a = Array.of_list (List.sort Int.compare list) in
      let lo = Sorted.lower_bound Int.compare a x and hi = Sorted.upper_bound Int.compare a x in
      lo <= hi
      && Array.for_all (fun y -> y = x) (Array.sub a lo (hi - lo))
      && (lo = 0 || a.(lo - 1) < x)
      && (hi = Array.length a || a.(hi) > x))

(* Linear references for the binary searches: first index >= / > x. *)
let lower_bound_reference a x =
  let n = Array.length a in
  let rec scan i = if i >= n || a.(i) >= x then i else scan (i + 1) in
  scan 0

let upper_bound_reference a x =
  let n = Array.length a in
  let rec scan i = if i >= n || a.(i) > x then i else scan (i + 1) in
  scan 0

let test_sorted_empty_array () =
  let a = [||] in
  check Alcotest.int "lower on empty" 0 (Sorted.lower_bound Int.compare a 5);
  check Alcotest.int "upper on empty" 0 (Sorted.upper_bound Int.compare a 5)

let test_sorted_all_equal () =
  let a = Array.make 7 4 in
  check Alcotest.int "lower below" 0 (Sorted.lower_bound Int.compare a 3);
  check Alcotest.int "upper below" 0 (Sorted.upper_bound Int.compare a 3);
  check Alcotest.int "lower at" 0 (Sorted.lower_bound Int.compare a 4);
  check Alcotest.int "upper at" 7 (Sorted.upper_bound Int.compare a 4);
  check Alcotest.int "lower above" 7 (Sorted.lower_bound Int.compare a 5)

let prop_sorted_matches_reference_on_duplicate_runs =
  (* Values drawn from a tiny alphabet force long duplicate runs; probes
     include absent values on both flanks of every run. *)
  QCheck.Test.make ~name:"bounds match linear reference on duplicate-run arrays" ~count:500
    QCheck.(pair (list_of_size Gen.(0 -- 40) (int_bound 5)) (int_range (-1) 6))
    (fun (list, x) ->
      let a = Array.of_list (List.sort Int.compare list) in
      Sorted.lower_bound Int.compare a x = lower_bound_reference a x
      && Sorted.upper_bound Int.compare a x = upper_bound_reference a x)

(* ---------- Ring_buffer ---------- *)

let test_ring_buffer_eviction () =
  let r = Ring_buffer.create 3 in
  check (Alcotest.option Alcotest.int) "push 1" None (Ring_buffer.push r 1);
  check (Alcotest.option Alcotest.int) "push 2" None (Ring_buffer.push r 2);
  check (Alcotest.option Alcotest.int) "push 3" None (Ring_buffer.push r 3);
  check Alcotest.int "full" 3 (Ring_buffer.length r);
  check (Alcotest.option Alcotest.int) "evicts oldest" (Some 1) (Ring_buffer.push r 4);
  check (Alcotest.list Alcotest.int) "window" [ 2; 3; 4 ] (Ring_buffer.to_list r);
  check Alcotest.int "count even" 2 (Ring_buffer.count (fun x -> x mod 2 = 0) r)

let test_ring_buffer_clear () =
  let r = Ring_buffer.create 2 in
  ignore (Ring_buffer.push r 1);
  Ring_buffer.clear r;
  check Alcotest.int "cleared" 0 (Ring_buffer.length r)

let prop_ring_buffer_keeps_newest =
  QCheck.Test.make ~name:"ring buffer holds the w newest elements" ~count:200
    QCheck.(pair (int_range 1 10) (small_list int))
    (fun (capacity, pushes) ->
      let r = Ring_buffer.create capacity in
      List.iter (fun x -> ignore (Ring_buffer.push r x)) pushes;
      let n = List.length pushes in
      let expected = List.filteri (fun i _ -> i >= n - capacity) pushes in
      Ring_buffer.to_list r = expected)

(* List-model conformance: replay a random Push/Clear script against both
   the ring buffer and a plain list of the newest [capacity] elements,
   comparing contents, length and the evicted element after every
   step. Scripts long enough to wrap the buffer several times exercise the
   start-index arithmetic across wraparound. *)
let prop_ring_buffer_matches_list_model =
  let op_gen = QCheck.Gen.(frequency [ (9, map (fun x -> `Push x) small_int); (1, pure `Clear) ]) in
  QCheck.Test.make ~name:"ring buffer matches list model under push/clear scripts" ~count:300
    QCheck.(pair (int_range 1 5) (make ~print:(fun ops -> string_of_int (List.length ops))
                                    Gen.(list_size (0 -- 60) op_gen)))
    (fun (capacity, ops) ->
      let r = Ring_buffer.create capacity in
      let model = ref [] (* oldest first, length <= capacity *) in
      List.for_all
        (fun op ->
          (match op with
          | `Push x ->
              let evicted = Ring_buffer.push r x in
              let expected_evicted =
                if List.length !model >= capacity then (
                  match !model with
                  | oldest :: rest ->
                      model := rest;
                      Some oldest
                  | [] -> None)
                else None
              in
              model := !model @ [ x ];
              evicted = expected_evicted
          | `Clear ->
              Ring_buffer.clear r;
              model := [];
              true)
          && Ring_buffer.to_list r = !model
          && Ring_buffer.length r = List.length !model
          && Ring_buffer.count (fun x -> x mod 2 = 0) r
             = List.length (List.filter (fun x -> x mod 2 = 0) !model))
        ops)

(* ---------- Hashing ---------- *)

let test_fnv_known_values () =
  (* FNV-1a 64-bit reference values. *)
  check Alcotest.int64 "empty" 0xCBF29CE484222325L (Hashing.fnv1a "");
  check Alcotest.int64 "'a'" 0xAF63DC4C8601EC8CL (Hashing.fnv1a "a")

let test_fnv_int_distinct () =
  let h1 = Hashing.fnv1a_int Hashing.offset 1L in
  let h2 = Hashing.fnv1a_int Hashing.offset 2L in
  check Alcotest.bool "distinct" true (not (Int64.equal h1 h2))

let suites =
  [
    ( "util.prng",
      [
        Alcotest.test_case "determinism" `Quick test_prng_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
        Alcotest.test_case "split independence" `Quick test_prng_split_independent;
        Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
        Alcotest.test_case "int rejects non-positive" `Quick test_prng_int_rejects_nonpositive;
        Alcotest.test_case "uniform range" `Quick test_prng_uniform_range;
        Alcotest.test_case "uniform mean" `Quick test_prng_uniform_mean;
        Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
        Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
        Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
        Alcotest.test_case "sample full population" `Quick test_sample_full_population;
        qtest prop_shuffle_is_permutation;
      ] );
    ( "util.bitset",
      [
        Alcotest.test_case "basic operations" `Quick test_bitset_basic;
        Alcotest.test_case "bounds checking" `Quick test_bitset_out_of_range;
        qtest prop_bitset_matches_list_set;
        qtest prop_bitset_directional_scans;
      ] );
    ( "util.sorted",
      [
        Alcotest.test_case "bounds" `Quick test_sorted_bounds;
        Alcotest.test_case "empty array" `Quick test_sorted_empty_array;
        Alcotest.test_case "all-equal array" `Quick test_sorted_all_equal;
        qtest prop_sorted_bounds_bracket;
        qtest prop_sorted_matches_reference_on_duplicate_runs;
      ] );
    ( "util.ring_buffer",
      [
        Alcotest.test_case "eviction" `Quick test_ring_buffer_eviction;
        Alcotest.test_case "clear" `Quick test_ring_buffer_clear;
        qtest prop_ring_buffer_keeps_newest;
        qtest prop_ring_buffer_matches_list_model;
      ] );
    ( "util.hashing",
      [
        Alcotest.test_case "fnv known values" `Quick test_fnv_known_values;
        Alcotest.test_case "fnv int folding" `Quick test_fnv_int_distinct;
      ] );
  ]
