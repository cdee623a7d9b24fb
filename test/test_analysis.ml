open Alcotest
module Driver = Concilium_analysis.Driver
module Effects = Concilium_analysis.Effects
module Callgraph = Concilium_analysis.Callgraph
module Finding = Concilium_analysis.Finding
module Layering = Concilium_analysis.Layering
module Inject = Concilium_analysis.Inject

let qtest = QCheck_alcotest.to_alcotest

(* Fixture sources below are data for the analysis, never compiled; the
   runtime stubs only have to parse, and the deliberately racy ones are
   what the detector must catch. *)

let pool_stub =
  {|let parallel_init ?pool n ~f = ignore pool; Array.init n f
let parallel_map ?pool xs ~f = ignore pool; Array.map f xs
|}

let prng_stub =
  {|let of_seed seed = seed
let of_string_seed s = String.length s
let split rng = rng
let split_n rng n = Array.make n rng
let int rng bound = ignore rng; bound
let float rng x = ignore rng; x
|}

let base_files = [ ("lib/util/pool.ml", pool_stub); ("lib/util/prng.ml", prng_stub) ]
let base_layers = "util\ncore\nexperiments\nbin\n"

let analyze ?(layers = base_layers) files =
  Driver.analyze_sources ~layers_path:"analysis/layers.txt" ~layers_text:layers ~dunes:[]
    ~files:(base_files @ files) ()

let finding_rules report =
  List.sort_uniq String.compare
    (List.map (fun (f : Finding.t) -> f.Finding.rule) report.Driver.r_findings)

let fired rule report = List.mem rule (finding_rules report)

let summary report ~m ~fn =
  Effects.find report.Driver.r_effects
    { Callgraph.k_lib = "concilium_experiments"; k_mod = m; k_fn = fn }

let get_summary report ~m ~fn =
  match summary report ~m ~fn with
  | Some s -> s
  | None -> failf "no summary for %s.%s" m fn

(* ---------- Effect inference ---------- *)

let test_intrinsic_global_write () =
  let src =
    {|let totals : (int, int) Hashtbl.t = Hashtbl.create 16

let bump key = Hashtbl.replace totals key 1
|}
  in
  let report = analyze [ ("lib/experiments/acc.ml", src) ] in
  let s = get_summary report ~m:"Acc" ~fn:"bump" in
  check bool "bump writes global" true (Effects.has s.Effects.s_mask Effects.Writes_global);
  let v = get_summary report ~m:"Acc" ~fn:"totals" in
  check bool "the table binding itself is a value" true v.Effects.s_def.Concilium_analysis.Source.d_is_value

let test_transitive_effects_and_trail () =
  let src =
    {|module Pool = Concilium_util.Pool

let totals : (int, int) Hashtbl.t = Hashtbl.create 16

let note key = Hashtbl.replace totals key 1

let middle key = note (key + 1)

let run ?pool () = Pool.parallel_init ?pool 4 ~f:(fun i -> middle i)
|}
  in
  let report = analyze [ ("lib/experiments/deep.ml", src) ] in
  let s = get_summary report ~m:"Deep" ~fn:"middle" in
  check bool "middle inherits writes-global" true
    (Effects.has s.Effects.s_mask Effects.Writes_global);
  (match List.assoc_opt Effects.Writes_global s.Effects.s_origins with
  | Some (Effects.Via (callee, _)) -> check string "via note" "note" callee.Callgraph.k_fn
  | _ -> fail "expected a Via origin on middle");
  (match report.Driver.r_findings with
  | [ f ] ->
      check string "rule" "pool-shared-write" f.Finding.rule;
      check bool "trail walks root -> middle -> note" true (List.length f.Finding.trail >= 3)
  | findings -> failf "expected exactly one finding, got %d" (List.length findings))

let test_prng_param_fixpoint () =
  let src =
    {|module Prng = Concilium_util.Prng

let sample rng bound = Prng.int rng bound

let wrapper rng bound = sample rng (bound + 1)
|}
  in
  let report = analyze [ ("lib/experiments/draws.ml", src) ] in
  let s = get_summary report ~m:"Draws" ~fn:"sample" in
  check bool "sample has randomness" true (Effects.has s.Effects.s_mask Effects.Randomness);
  check (list string) "sample prng params" [ "rng" ] s.Effects.s_prng_params;
  let w = get_summary report ~m:"Draws" ~fn:"wrapper" in
  check (list string) "wrapper prng params (transitive)" [ "rng" ] w.Effects.s_prng_params

let test_presplit_pattern_clean () =
  let src =
    {|module Pool = Concilium_util.Pool
module Prng = Concilium_util.Prng

let run ?pool ~seed n =
  let master = Prng.of_seed seed in
  let rngs = Prng.split_n master n in
  Pool.parallel_init ?pool n ~f:(fun i ->
      let rng = rngs.(i) in
      Prng.float rng 1.0)
|}
  in
  let report = analyze [ ("lib/experiments/presplit.ml", src) ] in
  check (list string) "pre-split per-task slots are clean" [] (finding_rules report)

(* ---------- Canary catches (mirrors test_check's divergence canaries) ---------- *)

let test_canaries_detected () =
  let core_stub = ("lib/core/scenario.ml", "let default = 1\n") in
  (* an entry point, so the reachability pass has a root to judge from *)
  let root = ("bin/main.ml", "let () = ignore Concilium_core.Scenario.default\n") in
  List.iter
    (fun (c : Inject.canary) ->
      let report = analyze [ core_stub; root; (c.Inject.c_path, c.Inject.c_source) ] in
      check bool (c.Inject.c_name ^ " detected") true (fired c.Inject.c_rule report);
      if String.length c.Inject.c_rule >= 4 && String.sub c.Inject.c_rule 0 4 = "pool" then
        List.iter
          (fun (f : Finding.t) ->
            if f.Finding.rule = c.Inject.c_rule then
              check bool (c.Inject.c_name ^ " has a call-graph trail") true (f.Finding.trail <> []))
          report.Driver.r_findings)
    Inject.canaries

let test_canary_count () =
  check bool "at least three canaries" true (List.length Inject.canaries >= 3)

(* ---------- Nested modules ---------- *)

let test_nested_sibling_call_resolved () =
  let src =
    {|module Pool = Concilium_util.Pool

let totals : (int, int) Hashtbl.t = Hashtbl.create 16

module Inner = struct
  let bump key = Hashtbl.replace totals key 1
  let note key = bump (key + 1)
end

let run ?pool () = Pool.parallel_init ?pool 4 ~f:(fun i -> Inner.note i)
|}
  in
  let report = analyze [ ("lib/experiments/nest.ml", src) ] in
  check bool "Inner.note -> Inner.bump is an edge" true
    (List.exists
       (fun (caller, callee) ->
         caller.Callgraph.k_fn = "Inner.note" && callee.Callgraph.k_fn = "Inner.bump")
       report.Driver.r_edges);
  check bool "the write behind the nested call reaches the task" true
    (fired "pool-shared-write" report)

(* ---------- Reachability ---------- *)

let lib_src =
  {|let dead x = x + 1

let helper x = x * 2

let only_dead y = helper y

let tested x = x - 1

let step x = x + 3

let apply f = f 1

type ops = { run : int -> int }

let table = { run = step }

let incr x = x + 1

module Model = struct
  let inner x = x + 7
  let outer x = inner x
end

let for_bench x = x
let for_example x = x
let for_perfbench x = x
|}

let reach_files ?(lib = lib_src) () =
  [
    ("lib/core/subject.ml", lib);
    ( "bin/main.ml",
      {|module S = Concilium_core.Subject

let () = ignore (S.apply S.incr + S.table.S.run 2 + S.Model.outer 3)
|} );
    ("bench/main.ml", "let () = ignore (Concilium_core.Subject.for_bench 1)\n");
    ("examples/demo.ml", "let () = ignore (Concilium_core.Subject.for_example 1)\n");
    ("test/test_subject.ml", "let check () = Concilium_core.Subject.tested 2\n");
  ]

let perfbench = [ ("perfbench/bench.ml", "let () = ignore (Concilium_core.Subject.for_perfbench 1)\n") ]

let reach_report ?lib () =
  Driver.analyze_sources ~consumers:perfbench ~layers_path:"analysis/layers.txt"
    ~layers_text:"util\ncore\nbin test bench examples\n" ~dunes:[] ~files:(reach_files ?lib ()) ()

let reach_findings report =
  List.filter_map
    (fun (f : Finding.t) ->
      if f.Finding.rule = "unreachable" || f.Finding.rule = "test-only" then
        Some (f.Finding.rule, f.Finding.line)
      else None)
    report.Driver.r_findings

(* Exactly the dead, the transitively dead and the test-only lines: a
   function passed as a value (17) or stored in a record of closures (9),
   a nested-module sibling call (20), and definitions only a bench/,
   examples/ or perfbench/ root reaches (24-26) are not reported. *)
let test_reach_reported () =
  check (list (pair string int)) "dead, transitively dead, test-only"
    [ ("unreachable", 1); ("unreachable", 3); ("unreachable", 5); ("test-only", 7) ]
    (reach_findings (reach_report ()))

let test_reach_without_roots () =
  let report = analyze [ ("lib/core/subject.ml", lib_src) ] in
  check (list (pair string int)) "no root, no judgement" [] (reach_findings report)

let test_reach_allow () =
  let directive reason = "(* analysis: allow test-only" ^ reason ^ " *)\n" in
  let with_directive reason =
    Str.global_replace (Str.regexp_string "let tested x = x - 1")
      (directive reason ^ "let tested x = x - 1") lib_src
  in
  let allowed = reach_report ~lib:(with_directive " \xe2\x80\x94 observation point for tests") () in
  check (list (pair string int)) "a reasoned allow silences test-only"
    [ ("unreachable", 1); ("unreachable", 3); ("unreachable", 5) ]
    (reach_findings allowed);
  let bare = reach_report ~lib:(with_directive "") () in
  check bool "an allow without a reason suppresses nothing" true
    (List.mem ("test-only", 8) (reach_findings bare));
  check bool "and is itself reported" true (fired "suppression-missing-reason" bare)

(* ---------- Suppressions ---------- *)

let shared_write_src ~directive =
  String.concat "\n"
    [
      "module Pool = Concilium_util.Pool";
      "";
      "let shared : (int, int) Hashtbl.t = Hashtbl.create 8";
      "";
      "let run ?pool () =";
      "  Pool.parallel_init ?pool 2 ~f:(fun i ->";
      "      " ^ directive;
      "      Hashtbl.replace shared i i;";
      "      i)";
      "";
    ]

let test_suppression_with_reason () =
  let src =
    shared_write_src
      ~directive:"(* analysis: allow pool-shared-write -- single writer per key, validated *)"
  in
  let report = analyze [ ("lib/experiments/sup.ml", src) ] in
  check (list string) "suppressed" [] (finding_rules report);
  check int "counted as suppressed" 1 report.Driver.r_suppressed

let test_suppression_missing_reason () =
  let src = shared_write_src ~directive:"(* analysis: allow pool-shared-write *)" in
  let report = analyze [ ("lib/experiments/sup.ml", src) ] in
  check bool "reasonless directive suppresses nothing" true (fired "pool-shared-write" report);
  check bool "and is itself reported" true (fired "suppression-missing-reason" report)

let test_allow_file () =
  let src =
    "(* analysis: allow-file pool-shared-write -- fixture exercises the whole file *)\n"
    ^ shared_write_src ~directive:"(* just a comment *)"
  in
  let report = analyze [ ("lib/experiments/sup.ml", src) ] in
  check (list string) "allow-file covers distant lines" [] (finding_rules report)

(* ---------- Layering ---------- *)

let edge e_from e_to =
  { Layering.e_from; e_to; e_file = "test"; e_line = 1; e_what = "synthetic" }

let test_layering_units () =
  match Layering.parse "util\ncore\n" with
  | Error message -> failf "parse failed: %s" message
  | Ok spec ->
      check (list string) "downward edge accepted" []
        (List.map
           (fun (f : Finding.t) -> f.Finding.rule)
           (Layering.check spec [ edge "concilium_core" "concilium_util" ]));
      (match Layering.check spec [ edge "concilium_util" "concilium_core" ] with
      | [ f ] -> check string "upward edge rejected" "layer-back-edge" f.Finding.rule
      | fs -> failf "expected one finding, got %d" (List.length fs));
      (match Layering.check spec [ edge "concilium_util" "concilium_mystery" ] with
      | [ f ] -> check string "unknown library reported" "layer-unknown" f.Finding.rule
      | fs -> failf "expected one finding, got %d" (List.length fs))

let test_dune_back_edge_fixture () =
  (* A synthetic dune back-edge: util depending on core must fail. *)
  match Layering.parse base_layers with
  | Error message -> failf "parse failed: %s" message
  | Ok spec ->
      let edges =
        Layering.dune_edges ~path:"lib/util/dune"
          "(library\n (name concilium_util)\n (libraries concilium_core))\n"
      in
      check int "one dependency edge extracted" 1 (List.length edges);
      (match Layering.check spec edges with
      | [ f ] ->
          check string "back-edge caught" "layer-back-edge" f.Finding.rule;
          check string "reported against the dune file" "lib/util/dune" f.Finding.file
      | fs -> failf "expected one finding, got %d" (List.length fs))

(* The layering check accepts exactly the DAG-respecting edge sets: with
   every library known, findings correspond one-to-one to edges whose
   target layer is not strictly lower. *)
let layering_qcheck =
  let libs = [| "a"; "b"; "c"; "d"; "e" |] in
  let gen =
    QCheck.(
      pair
        (array_of_size (QCheck.Gen.return 5) (int_bound 4))
        (small_list (pair (int_bound 4) (int_bound 4))))
  in
  QCheck.Test.make ~name:"layering accepts exactly DAG-respecting edge sets" ~count:300 gen
    (fun (buckets, pairs) ->
      (* libs.(i) lives in bucket buckets.(i); non-empty buckets become
         layers bottom-up, so a lib's layer is its bucket's rank. *)
      let used = List.sort_uniq Int.compare (Array.to_list buckets) in
      let rank bucket =
        let rec go index = function
          | [] -> 0
          | b :: rest -> if b = bucket then index else go (index + 1) rest
        in
        go 0 used
      in
      let text =
        String.concat "\n"
          (List.map
             (fun bucket ->
               String.concat " "
                 (List.filteri (fun i _ -> buckets.(i) = bucket) (Array.to_list libs)))
             used)
        ^ "\n"
      in
      let edges =
        List.map (fun (i, j) -> edge ("concilium_" ^ libs.(i)) ("concilium_" ^ libs.(j))) pairs
      in
      let violating =
        List.length
          (List.filter
             (fun (i, j) -> i <> j && rank buckets.(j) >= rank buckets.(i))
             pairs)
      in
      match Layering.parse text with
      | Error _ -> false
      | Ok spec ->
          let findings = Layering.check spec edges in
          List.length findings = violating
          && List.for_all (fun (f : Finding.t) -> f.Finding.rule = "layer-back-edge") findings)

(* ---------- Report metrics ---------- *)

let test_metrics_counters () =
  let report = analyze [] in
  let counter = Concilium_obs.Metrics.counter report.Driver.r_metrics in
  check int "modules scanned" 2 (counter "analysis:modules-scanned");
  check bool "functions resolved" true (counter "analysis:functions-resolved" >= 8)

let suites =
  [
    ( "analysis.effects",
      [
        test_case "intrinsic global write" `Quick test_intrinsic_global_write;
        test_case "transitive effects and witness trail" `Quick test_transitive_effects_and_trail;
        test_case "prng parameter fixpoint" `Quick test_prng_param_fixpoint;
        test_case "pre-split pattern is clean" `Quick test_presplit_pattern_clean;
      ] );
    ( "analysis.races",
      [
        test_case "canary mutations detected" `Quick test_canaries_detected;
        test_case "enough canaries" `Quick test_canary_count;
      ] );
    ( "analysis.callgraph",
      [ test_case "nested-module sibling calls resolve" `Quick test_nested_sibling_call_resolved ] );
    ( "analysis.reachability",
      [
        test_case "reports dead, transitively dead and test-only only" `Quick
          test_reach_reported;
        test_case "no root, no findings" `Quick test_reach_without_roots;
        test_case "allow needs a reason" `Quick test_reach_allow;
      ] );
    ( "analysis.suppressions",
      [
        test_case "allow with reason" `Quick test_suppression_with_reason;
        test_case "allow without reason" `Quick test_suppression_missing_reason;
        test_case "allow-file" `Quick test_allow_file;
      ] );
    ( "analysis.layering",
      [
        test_case "units" `Quick test_layering_units;
        test_case "synthetic dune back-edge fails" `Quick test_dune_back_edge_fixture;
        qtest layering_qcheck;
      ] );
    ("analysis.metrics", [ test_case "coverage counters" `Quick test_metrics_counters ]);
  ]
