(* Bechamel micro-benchmarks: one Test.make per paper table/figure,
   measuring the computational kernel that regenerates it, plus the core
   protocol primitives. Run with `dune exec bench/main.exe`. *)

(* Alias the raw clock before the opens: Toolkit shadows Monotonic_clock
   with its MEASURE wrapper, which has no [now]. *)
module Raw_clock = Monotonic_clock

open Bechamel
open Toolkit
module E = Concilium_experiments
module World = Concilium_core.World
module Blame = Concilium_core.Blame
module Accusation_model = Concilium_core.Accusation_model
module Bandwidth = Concilium_core.Bandwidth
module Density_test = Concilium_overlay.Density_test
module Jump_table_model = Concilium_overlay.Jump_table_model
module Pastry = Concilium_overlay.Pastry
module Id = Concilium_overlay.Id
module Minc = Concilium_tomography.Minc
module Probing = Concilium_tomography.Probing
module Observation = Concilium_tomography.Observation
module Prng = Concilium_util.Prng
module Pool = Concilium_util.Pool
module Graph = Concilium_topology.Graph
module Routes = Concilium_topology.Routes
module Tree = Concilium_tomography.Tree
module Logical_tree = Concilium_tomography.Logical_tree
module Trace = Concilium_obs.Trace

(* Self-profiling: the harness's own stages run inside spans on the process
   monotonic clock (relative to startup), and --json/--out fold the
   completed spans into a "profile" section — the bench binary eats its own
   observability dogfood. *)
let profile_trace = Trace.create ()
let bench_t0 = Raw_clock.now ()
let elapsed () = Int64.to_float (Int64.sub (Raw_clock.now ()) bench_t0) /. 1e9

let profiled name f =
  let span = Trace.span_open profile_trace ~time:(elapsed ()) ~cat:"bench" name in
  let result = f () in
  Trace.span_close profile_trace ~time:(elapsed ()) span;
  result

(* Shared fixtures, built once. *)
let world = lazy (World.build (World.tiny_config ~seed:2024L))

let blame_world =
  lazy
    (E.Blame_world.create ~world:(Lazy.force world)
       {
         (E.Blame_world.paper_config ~colluding_fraction:0. ~seed:3L) with
         E.Blame_world.duration = 1800.;
       })

let minc_fixture =
  lazy
    (let w = Lazy.force world in
     let tree = w.World.trees.(0) in
     let logical = w.World.logical.(0) in
     let rng = Prng.of_seed 5L in
     let rounds = Probing.probe_rounds ~rng ~loss_of_link:(fun _ -> 0.02) ~tree ~count:100 () in
     (logical, Probing.acked_matrix rounds))

let observation_fixture =
  lazy
    (let store = Observation.create () in
     let rng = Prng.of_seed 6L in
     for _ = 1 to 5_000 do
       Observation.record store
         {
           Observation.time = Prng.float rng 7200.;
           prober = Prng.int rng 50;
           link = Prng.int rng 200;
           up = Prng.bool rng;
         }
     done;
     store)

let fig1_bench =
  Test.make ~name:"fig1:occupancy-model+monte-carlo"
    (Staged.stage @@ fun () ->
     let rng = Prng.of_seed 1L in
     ignore (Jump_table_model.model ~n:10_000);
     ignore (Jump_table_model.monte_carlo_occupancy ~rng ~n:2_000 ~trials:1))

let fig2_bench =
  Test.make ~name:"fig2:density-error-rates"
    (Staged.stage @@ fun () ->
     ignore
       (Density_test.rates ~gamma:1.2
          { Density_test.n = 100_000; colluding_fraction = 0.2; suppression = false }))

let fig3_bench =
  Test.make ~name:"fig3:density-error-rates-suppression"
    (Staged.stage @@ fun () ->
     ignore
       (Density_test.rates ~gamma:1.2
          { Density_test.n = 100_000; colluding_fraction = 0.2; suppression = true }))

let fig4_bench =
  Test.make ~name:"fig4:forest-coverage-per-host"
    (Staged.stage @@ fun () ->
     let w = Lazy.force world in
     let rng = Prng.of_seed 4L in
     ignore (E.Fig4.run ~world:w ~rng ~host_sample:3 ()))

let fig5_bench =
  Test.make ~name:"fig5:blame-judgment-x10"
    (Staged.stage @@ fun () ->
     let bw = Lazy.force blame_world in
     let rng = Prng.of_seed 7L in
     for _ = 1 to 10 do
       ignore (E.Blame_world.sample_judgment bw ~rng)
     done)

let fig6_bench =
  Test.make ~name:"fig6:accusation-error-sweep"
    (Staged.stage @@ fun () ->
     for m = 1 to 30 do
       ignore (Accusation_model.false_positive ~w:100 ~m ~p_good:0.018);
       ignore (Accusation_model.false_negative ~w:100 ~m ~p_faulty:0.938)
     done)

let bandwidth_bench =
  Test.make ~name:"sec4.4:bandwidth-model"
    (Staged.stage @@ fun () -> ignore (Bandwidth.report Bandwidth.paper_params))

(* Batched x10 over spread drop times: one Eq. 2 evaluation is too short
   for a trustworthy per-run fit (the un-batched version measured r² < 0),
   and the fixture is forced before measurement (see [force_fixtures]). *)
let blame_eq2_bench =
  Test.make ~name:"core:blame-equation-2-x10"
    (Staged.stage @@ fun () ->
     let store = Lazy.force observation_fixture in
     for i = 1 to 10 do
       let selection =
         Blame.select_votes Blame.paper_config ~observations:store ~links:[| 1; 2; 3; 4; 5 |]
           ~drop_time:(600. *. float_of_int i) ~visible:(fun _ -> true) ~exclude:(Some 0)
           ~one_vote_per_prober:false
       in
       ignore
         (Blame.blame_of_observations Blame.paper_config
            ~grouped:(Blame.grouped_votes selection))
     done)

let minc_bench =
  Test.make ~name:"tomography:minc-inference-100-rounds"
    (Staged.stage @@ fun () ->
     let logical, acked = Lazy.force minc_fixture in
     ignore (Minc.infer logical ~acked))

(* A deliberately wide random tree (hundreds of leaves): the arena where the
   single-sweep [infer] beats the per-node-scan [infer_reference], whose cost
   carries an extra factor of the leaf count. *)
let minc_large_fixture =
  lazy
    (let rng = Prng.of_seed 14L in
     let n = 600 in
     let b = Graph.Builder.create n in
     let has_child = Array.make n false in
     for i = 1 to n - 1 do
       let parent = Prng.int rng i in
       has_child.(parent) <- true;
       Graph.Builder.add_link b parent i
     done;
     let g = Graph.build b in
     let leaves =
       Array.of_list (List.filter (fun i -> not has_child.(i)) (List.init n (fun i -> i)))
     in
     let path target =
       match Routes.shortest_path g ~source:0 ~target with
       | Some p -> p
       | None -> invalid_arg "bench tree is connected by construction"
     in
     let tree = Tree.of_paths ~root:0 ~paths:(Array.map path leaves) in
     let logical = Logical_tree.of_tree tree in
     let leaf_count = Logical_tree.leaf_count logical in
     let acked =
       (* Lossy rounds: sparse acks force the reference's per-node
          [Array.exists] to actually scan its descendant leaf sets rather
          than exit on the first element. *)
       Array.init 1000 (fun _ -> Array.init leaf_count (fun _ -> Prng.bernoulli rng 0.05))
     in
     (logical, acked))

let minc_large_bench =
  Test.make ~name:"tomography:minc-inference-large"
    (Staged.stage @@ fun () ->
     let logical, acked = Lazy.force minc_large_fixture in
     ignore (Minc.infer logical ~acked))

let minc_reference_bench =
  Test.make ~name:"tomography:minc-reference-large"
    (Staged.stage @@ fun () ->
     let logical, acked = Lazy.force minc_large_fixture in
     ignore (Minc.infer_reference logical ~acked))

(* End-to-end figure regeneration, sequential vs the domain pool. On a
   single-core host the pool degrades to the inline path, so the pair also
   doubles as a pool-overhead check. Trials are 8 per size so the largest
   size splits into 8 tasks — with 4 the four big tasks cap the pool's
   ideal speedup near 6x on 8 domains; with 8 the cap is comfortably
   above it. *)
let fig1_sizes = [| 128; 256; 512; 1024 |]
let fig1_trials = 8

let fig1_e2e_sequential_bench =
  Test.make ~name:"experiments:fig1-end-to-end-sequential"
    (Staged.stage @@ fun () ->
     ignore (E.Fig1.run ~seed:2025L ~sizes:fig1_sizes ~trials:fig1_trials ()))

(* Sized from --domains when given, else the host's core count. *)
let requested_domains = ref None
let shared_pool = lazy (Pool.create ?domains:!requested_domains ())

let fig1_e2e_pool_bench =
  Test.make ~name:"experiments:fig1-end-to-end-pool"
    (Staged.stage @@ fun () ->
     let pool = Lazy.force shared_pool in
     ignore (E.Fig1.run ~pool ~seed:2025L ~sizes:fig1_sizes ~trials:fig1_trials ()))

(* Pool-scaling microbenches: dispatch cost of a fan-out whose tasks are
   nearly free. The per-run estimate is the scheduling overhead the
   work-stealing pool adds on top of Array.init — claim cadence, steal
   scans, and the submit/join handshake. *)
let pool_fanout_bench =
  Test.make ~name:"pool:fanout-256-trivial-tasks"
    (Staged.stage @@ fun () ->
     let pool = Lazy.force shared_pool in
     ignore (Pool.parallel_init ~pool 256 ~f:(fun i -> i * i)))

let pool_fanout_inline_bench =
  Test.make ~name:"pool:fanout-256-trivial-tasks-inline"
    (Staged.stage @@ fun () -> ignore (Pool.parallel_init 256 ~f:(fun i -> i * i)))

let pastry_route_bench =
  Test.make ~name:"overlay:pastry-route"
    (Staged.stage @@ fun () ->
     let w = Lazy.force world in
     let rng = Prng.of_seed 8L in
     let dest = Id.random rng in
     ignore (Pastry.route w.World.pastry ~from:0 ~dest))

let sha256_bench =
  Test.make ~name:"crypto:sha256-1KiB"
    (Staged.stage @@ fun () -> ignore (Concilium_crypto.Sha256.digest (String.make 1024 'x')))

let chord_fixture =
  lazy
    (let rng = Prng.of_seed 10L in
     let ids = Array.init 500 (fun _ -> Id.random rng) in
     Concilium_overlay.Chord.build ids)

(* Batched x16 over a fixed dest sequence: one jump-table route is a few
   microseconds, short enough that the un-batched fit measured r² < 0. *)
let chord_route_bench =
  Test.make ~name:"overlay:chord-route-x16"
    (Staged.stage @@ fun () ->
     let overlay = Lazy.force chord_fixture in
     let rng = Prng.of_seed 11L in
     for _ = 1 to 16 do
       ignore (Concilium_overlay.Chord.route overlay ~from:0 ~dest:(Id.random rng))
     done)

let chord_route_reference_bench =
  Test.make ~name:"overlay:chord-route-reference"
    (Staged.stage @@ fun () ->
     (* The retained linear-scan forwarding, driven through the same route
        shape as overlay:chord-route: the guard below checks the O(log n)
        jump-table path never regresses past this baseline. *)
     let overlay = Lazy.force chord_fixture in
     let rng = Prng.of_seed 11L in
     let dest = Id.random rng in
     let owner = Concilium_overlay.Chord.successor_of_key overlay dest in
     let rec loop current remaining =
       if current = owner || remaining = 0 then ()
       else begin
         match Concilium_overlay.Chord.next_hop_reference overlay ~from:current ~dest with
         | None -> ()
         | Some next -> loop next (remaining - 1)
       end
     in
     loop 0 756)

let secure_routing_bench =
  Test.make ~name:"overlay:redundant-route"
    (Staged.stage @@ fun () ->
     let w = Lazy.force world in
     let rng = Prng.of_seed 12L in
     ignore
       (Concilium_overlay.Secure_routing.redundant_route w.World.pastry ~from:0
          ~dest:(Id.random rng)
          ~faulty:(fun v -> v mod 7 = 3)))

let validation_bench =
  Test.make ~name:"core:snapshot-validation"
    (Staged.stage @@ fun () ->
     (* Verifying a full accusation exercises signature checks, vote
        re-validation and the blame recomputation. *)
     let pki = Concilium_crypto.Pki.create ~seed:13L in
     let cert, secret = Concilium_crypto.Pki.issue pki ~address:"b" ~node_id:"bench" in
     let signature = Concilium_crypto.Pki.sign secret "bench-payload" in
     ignore (Concilium_crypto.Pki.verify pki cert.Concilium_crypto.Pki.subject_key "bench-payload" signature))

let chaos_bench =
  Test.make ~name:"netsim:chaos-sample+compile"
    (Staged.stage @@ fun () ->
     (* The per-scenario setup cost of the soak runner: draw a busy fault
        plan over an hour and compile it onto a fresh engine. *)
     let module Engine = Concilium_netsim.Engine in
     let module Link_state = Concilium_netsim.Link_state in
     let module Chaos = Concilium_netsim.Chaos in
     let plan =
       Chaos.sample ~rng:(Prng.of_seed 14L) ~config:Chaos.paper_rates
         ~links:(Array.init 500 Fun.id) ~nodes:100
         ~cuts:[| Array.init 10 Fun.id |]
         ~horizon:3600.
     in
     let engine = Engine.create () in
     let link_state = Link_state.create ~link_count:500 ~good_loss:0.001 ~bad_loss:1. in
     let chaos = Chaos.compile ~engine ~link_state plan in
     Engine.run engine;
     ignore (Chaos.node_online chaos ~time:1800. 0))

let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]

(* Force every heavy fixture before any measurement starts. Lazy fixtures
   forced from inside a staged closure bill their construction to the first
   measured run — an outlier large enough to drive the OLS fit's r² negative
   (core:blame-equation-2 and overlay:chord-route both exhibited this). *)
let force_fixtures () =
  profiled "bench.fixtures" (fun () ->
      ignore (Lazy.force world);
      ignore (Lazy.force blame_world);
      ignore (Lazy.force minc_fixture);
      ignore (Lazy.force observation_fixture);
      ignore (Lazy.force minc_large_fixture);
      ignore (Lazy.force chord_fixture);
      ignore (Lazy.force shared_pool))

let benchmark () =
  force_fixtures ();
  let tests =
    [
      fig1_bench;
      fig2_bench;
      fig3_bench;
      fig4_bench;
      fig5_bench;
      fig6_bench;
      bandwidth_bench;
      blame_eq2_bench;
      minc_bench;
      minc_large_bench;
      minc_reference_bench;
      fig1_e2e_sequential_bench;
      fig1_e2e_pool_bench;
      pool_fanout_bench;
      pool_fanout_inline_bench;
      pastry_route_bench;
      sha256_bench;
      chord_route_bench;
      chord_route_reference_bench;
      secure_routing_bench;
      validation_bench;
      chaos_bench;
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let test = Test.make_grouped ~name:"concilium" ~fmt:"%s %s" tests in
  let raw_results = profiled "bench.measure" (fun () -> Benchmark.all cfg instances test) in
  let results =
    profiled "bench.analyze" (fun () ->
        List.map (fun instance -> Analyze.all ols instance raw_results) instances)
  in
  (Analyze.merge ols instances results, raw_results)

(* ---------- Output ---------- *)

(* An OLS fit with a weak (or negative) r² means the ns/run estimate is
   noise-dominated — comparisons against it are not actionable. Flag such
   rows instead of letting them masquerade as measurements. *)
let low_confidence_threshold = 0.5

let low_confidence r_square = Float.is_nan r_square || r_square < low_confidence_threshold

(* Collected rows are sorted by name because Hashtbl iteration order is
   seed-dependent. *)
let rows_of_results results =
  let rows = ref [] in
  Hashtbl.iter
    (fun _measure per_test ->
      Hashtbl.iter
        (fun name ols ->
          let ns_per_run =
            match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> 0.
          in
          let r_square =
            match Analyze.OLS.r_square ols with Some r -> r | None -> 0.
          in
          rows := (name, ns_per_run, r_square) :: !rows)
        per_test)
    results;
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !rows

(* Machine-readable dump for BENCH_baseline.json: one record per benchmark
   with the OLS ns/run estimate, plus the harness's own profile spans. *)
let json_of_results results =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.bprintf buf fmt in
  let rows = rows_of_results results in
  add "{\n";
  add "  \"host\": { \"cores\": %d, \"ocaml\": %S },\n"
    (Pool.default_domains ()) Sys.ocaml_version;
  add "  \"unit\": \"ns/run\",\n";
  add "  \"results\": [\n";
  List.iteri
    (fun i (name, ns, r2) ->
      add "    { \"name\": %S, \"ns_per_run\": %.1f, \"r_square\": %.4f, \
           \"low_confidence\": %b }%s\n"
        name ns r2 (low_confidence r2)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  add "  ],\n";
  let spans = Trace.completed_spans profile_trace in
  add "  \"profile\": [\n";
  List.iteri
    (fun i (name, start, duration) ->
      add "    { \"stage\": %S, \"start_s\": %.3f, \"duration_s\": %.3f }%s\n" name start
        duration
        (if i = List.length spans - 1 then "" else ","))
    spans;
  add "  ],\n";
  (* Per-domain activity of the shared pool, so a pool-vs-sequential gap is
     attributable: all idle = starved submitter, all steal-wait = chunks too
     fine. Only forced when a pooled benchmark actually ran. *)
  let pool_stats = if Lazy.is_val shared_pool then Pool.stats (Lazy.force shared_pool) else [] in
  add "  \"pool\": [\n";
  List.iteri
    (fun i { Pool.worker; busy_s; idle_s; steal_wait_s; chunks; steals; empty_scans; wakeups } ->
      add
        "    { \"worker\": %d, \"busy_s\": %.6f, \"idle_s\": %.6f, \"steal_wait_s\": %.6f, \
         \"chunks\": %d, \"steals\": %d, \"empty_scans\": %d, \"wakeups\": %d }%s\n"
        worker busy_s idle_s steal_wait_s chunks steals empty_scans wakeups
        (if i = List.length pool_stats - 1 then "" else ","))
    pool_stats;
  add "  ]\n}\n";
  Buffer.contents buf

let render_flags rows =
  let flagged = List.filter (fun (_, _, r2) -> low_confidence r2) rows in
  List.iter
    (fun (name, ns, r2) ->
      Printf.printf "low-confidence %-45s %10.1f ns/run (r_square=%.4f < %.1f)\n" name ns r2
        low_confidence_threshold)
    flagged;
  if flagged <> [] then
    Printf.printf "%d of %d estimates are noise-dominated; treat their ns/run as indicative only.\n"
      (List.length flagged) (List.length rows)

(* Regression guards: relationships between benchmarks that must hold
   regardless of absolute host speed. *)
let render_guards rows =
  let find suffix =
    List.find_map
      (fun (name, ns, r2) ->
        let n = String.length name and s = String.length suffix in
        if n >= s && String.sub name (n - s) s = suffix then Some (ns, r2) else None)
      rows
  in
  match (find "overlay:chord-route-x16", find "overlay:chord-route-reference") with
  | Some (batch, fast_r2), Some (reference, ref_r2) ->
      (* The fast bench routes 16 times per run (batched for fit quality),
         the reference routes once: compare amortised per-route cost. The
         O(log n) jump table must beat the linear-scan baseline. *)
      let fast = batch /. 16. in
      let ratio = if reference > 0. then fast /. reference else Float.infinity in
      let confident = not (low_confidence fast_r2 || low_confidence ref_r2) in
      let ok = ratio <= 1.0 || not confident in
      Printf.printf "guard chord-route-x16 <= reference: %.1f vs %.1f ns/run (%.2fx) %s\n" fast
        reference ratio
        (if ratio <= 1.0 then if confident then "ok" else "ok (low confidence)"
         else if not confident then "skipped (low confidence)"
         else "FAILED");
      ok
  | _ ->
      print_endline "guard chord-route-x16 <= reference: benchmarks missing, FAILED";
      false

(* A negative r² is worse than low confidence: the fit is anti-correlated
   with the run count, i.e. the benchmark harness itself is broken (cold
   fixture, quota too small for the workload). That is a bug in this file,
   not a property of the host, so it fails the run in every mode. *)
let check_no_negative_r2 rows =
  let negative = List.filter (fun (_, _, r2) -> r2 < 0.) rows in
  List.iter
    (fun (name, ns, r2) ->
      Printf.eprintf "NEGATIVE r_square %-45s %10.1f ns/run (r_square=%.4f)\n" name ns r2)
    negative;
  if negative <> [] then begin
    Printf.eprintf
      "%d estimate(s) have r_square < 0: the fit is invalid (setup cost inside the measured \
       closure?). Failing.\n"
      (List.length negative);
    false
  end
  else true

(* ---------- Multicore speedup curve (--multicore FILE) ----------

   Not a bechamel bench: wall-clocks the full fig1 pipeline sequentially and
   under pools of 1/2/4/8 domains, median of five runs each, and emits a
   BENCH_multicore.json document. Verifies pooled output structurally equals
   the sequential reference (the pool's byte-identity contract), and with
   --assert-speedup X exits nonzero unless the best pooled run beats the
   sequential one by at least X — CI runs this as the bench-multicore smoke
   test. *)
let multicore_domains = [ 1; 2; 4; 8 ]
let multicore_reps = 5

let multicore ~out ~assert_speedup =
  let run_fig1 ?pool () = E.Fig1.run ?pool ~seed:2025L ~sizes:fig1_sizes ~trials:fig1_trials () in
  let median times =
    let sorted = List.sort Float.compare times in
    List.nth sorted (List.length sorted / 2)
  in
  let sample f =
    let result = ref None in
    let times =
      List.init multicore_reps (fun _ ->
          let t0 = Raw_clock.now () in
          result := Some (f ());
          Int64.to_float (Int64.sub (Raw_clock.now ()) t0) /. 1e9)
    in
    (Option.get !result, median times)
  in
  let reference, sequential_s = sample (fun () -> run_fig1 ()) in
  let curve =
    List.map
      (fun domains ->
        Pool.with_pool ~domains (fun pool ->
            let result, s = sample (fun () -> run_fig1 ~pool ()) in
            if result <> reference then begin
              Printf.eprintf
                "multicore: fig1 output under --domains %d differs from sequential output\n"
                domains;
              exit 1
            end;
            (domains, s, sequential_s /. s)))
      multicore_domains
  in
  let best_speedup = List.fold_left (fun acc (_, _, sp) -> Float.max acc sp) 0. curve in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.bprintf buf fmt in
  add "{\n";
  add "  \"host\": { \"cores\": %d, \"ocaml\": %S },\n" (Pool.default_domains ()) Sys.ocaml_version;
  add "  \"workload\": \"fig1 end-to-end, sizes [128;256;512;1024], trials %d, median of %d runs\",\n"
    fig1_trials multicore_reps;
  add "  \"sequential_s\": %.6f,\n" sequential_s;
  add "  \"curve\": [\n";
  List.iteri
    (fun i (domains, s, speedup) ->
      add "    { \"domains\": %d, \"s\": %.6f, \"speedup\": %.3f }%s\n" domains s speedup
        (if i = List.length curve - 1 then "" else ","))
    curve;
  add "  ],\n";
  add "  \"best_speedup\": %.3f\n}\n" best_speedup;
  let document = Buffer.contents buf in
  (match out with
  | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc document);
      Printf.printf "multicore json -> %s\n" path
  | None -> print_string document);
  List.iter
    (fun (domains, s, speedup) ->
      Printf.printf "domains=%d  %.3fs  (%.2fx vs sequential %.3fs)\n" domains s speedup
        sequential_s)
    curve;
  match assert_speedup with
  | Some threshold when best_speedup < threshold ->
      Printf.eprintf "ASSERT-SPEEDUP FAILED: best pooled speedup %.2fx < required %.2fx\n"
        best_speedup threshold;
      exit 1
  | Some threshold ->
      Printf.printf "assert-speedup ok: best %.2fx >= %.2fx\n" best_speedup threshold
  | None -> ()

let render_table results =
  let open Bechamel_notty in
  let rect =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { w; h }
    | None -> { w = 120; h = 1 }
  in
  List.iter (fun v -> Unit.add v (Measure.unit v)) Instance.[ monotonic_clock ];
  Multiple.image_of_ols_results ~rect ~predictor:Measure.run results
  |> Notty_unix.eol |> Notty_unix.output_image

let () =
  (* --json prints the JSON document to stdout (historical behaviour, but
     it interleaves with dune's progress output when run via `dune exec`);
     --out FILE writes the same document to FILE and keeps stdout
     human-readable. --domains N sizes the shared pool (default: host core
     count). --multicore FILE skips the bechamel benches and writes the
     sequential-vs-pool speedup curve instead; --assert-speedup X makes it
     exit nonzero below X. *)
  let json = Array.exists (String.equal "--json") Sys.argv in
  let out = ref None in
  let multicore_out = ref None in
  let multicore_mode = ref false in
  let assert_speedup = ref None in
  Array.iteri
    (fun i arg ->
      let value () = if i + 1 < Array.length Sys.argv then Some Sys.argv.(i + 1) else None in
      match arg with
      | "--out" -> out := value ()
      | "--domains" ->
          requested_domains := Option.map int_of_string (value ())
      | "--multicore" ->
          multicore_mode := true;
          (* FILE is optional: bare --multicore prints the JSON to stdout. *)
          (match value () with
          | Some v when String.length v >= 2 && String.sub v 0 2 = "--" -> ()
          | v -> multicore_out := v)
      | "--assert-speedup" -> assert_speedup := Option.map float_of_string (value ())
      | _ -> ())
    Sys.argv;
  if !multicore_mode then multicore ~out:!multicore_out ~assert_speedup:!assert_speedup
  else begin
    let results, _ = benchmark () in
    let rows = rows_of_results results in
    (match !out with
    | Some path ->
        let document = json_of_results results in
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc document);
        render_table results;
        Printf.printf "json -> %s\n" path
    | None -> if json then print_string (json_of_results results) else render_table results);
    if not json then render_flags rows;
    let fit_ok = check_no_negative_r2 rows in
    let guards_ok = if json then true else render_guards rows in
    if not (guards_ok && fit_ok) then exit 1
  end
