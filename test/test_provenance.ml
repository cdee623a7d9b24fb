(* Provenance layer: arena construction, shard merging, JSONL/tap-stream
   byte stability, the flight recorder, the metrics time series, the
   histogram bucket-boundary fix — and the replay contract: verdicts the
   full protocol records must reproduce bit-for-bit when their evidence is
   replayed through the Blame calculus (the lib-level half of what
   bin/explain.exe --validate-all enforces on artifacts). *)

module Graph = Concilium_provenance.Graph
module Collector = Concilium_obs.Collector
module Trace = Concilium_obs.Trace
module Metrics = Concilium_obs.Metrics
module Flight = Concilium_obs.Flight
module Timeseries = Concilium_obs.Timeseries
module Json = Concilium_util.Json
module World = Concilium_core.World
module Protocol = Concilium_core.Protocol
module Blame = Concilium_core.Blame
module Engine = Concilium_netsim.Engine
module Link_state = Concilium_netsim.Link_state
module Topology = Concilium_topology.Graph
module Id = Concilium_overlay.Id
module Prng = Concilium_util.Prng

let check = Alcotest.check

(* ---------- Arena ---------- *)

let test_arena_construction () =
  let g = Graph.create () in
  check Alcotest.bool "recording" true (Graph.enabled g);
  Graph.set_param g "accuracy" 0.8;
  Graph.set_param g "accuracy" 0.9;
  check (Alcotest.option (Alcotest.float 0.)) "last param write wins" (Some 0.9)
    (Graph.param g "accuracy");
  let p1 = Graph.probe g ~prober:3 ~link:7 ~time:10. ~up:true ~tapped:false ~forged:false in
  let p2 = Graph.probe g ~prober:4 ~link:7 ~time:11. ~up:false ~tapped:true ~forged:false in
  let d = Graph.defense g ~kind:Graph.Vote_dedup ~removed:2 ~judge:1 ~suspect:2 in
  let v =
    Graph.verdict g ~judge:1 ~suspect:2 ~kind:Graph.Guilty ~exonerated:false ~usable_rounds:5
      ~blame:0.9 ~drop_time:42.
  in
  Graph.edge g ~parent:v ~child:d;
  Graph.edge g ~parent:v ~child:p1;
  Graph.edge g ~parent:v ~child:p2;
  let a = Graph.accusation g ~accuser:1 ~accused:2 ~blame:0.9 ~time:42. in
  Graph.edge g ~parent:a ~child:v;
  check Alcotest.int "node count" 5 (Graph.node_count g);
  check Alcotest.int "edge count" 4 (Graph.edge_count g);
  check (Alcotest.list Alcotest.int) "children in edge order" [ d; p1; p2 ]
    (Graph.children g v);
  check (Alcotest.list Alcotest.int) "accusation cites verdict" [ v ] (Graph.children g a);
  check Alcotest.string "verdict kind name" "verdict" (Graph.kind_of g v);
  check (Alcotest.list Alcotest.int) "verdict listing" [ v ] (Graph.verdicts g);
  check (Alcotest.list Alcotest.int) "leaf has no children" [] (Graph.children g p1)

let test_noop_graph_records_nothing () =
  let g = Graph.noop in
  check Alcotest.bool "disabled" false (Graph.enabled g);
  let p = Graph.probe g ~prober:0 ~link:0 ~time:0. ~up:true ~tapped:false ~forged:false in
  check Alcotest.int "constructor returns none" Graph.none p;
  Graph.edge g ~parent:p ~child:p;
  Graph.set_param g "accuracy" 0.9;
  check Alcotest.int "no nodes" 0 (Graph.node_count g);
  check Alcotest.int "no edges" 0 (Graph.edge_count g);
  check (Alcotest.option (Alcotest.float 0.)) "no params" None (Graph.param g "accuracy");
  check (Alcotest.list Alcotest.int) "none has no children" [] (Graph.children g Graph.none)

let sample_graph () =
  let g = Graph.create () in
  Graph.set_param g "guilt_threshold" 0.4;
  let p = Graph.probe g ~prober:1 ~link:2 ~time:3.5 ~up:false ~tapped:false ~forged:true in
  let c = Graph.accusation g ~accuser:1 ~accused:2 ~blame:0.5 ~time:3.5 in
  Graph.edge g ~parent:c ~child:p;
  let f = Graph.failover g ~kind:Graph.Steward ~node:9 ~time:7. in
  let t = Graph.tap_firing g ~kind:Graph.Forced_drop ~node:4 ~time:6. in
  let r = Graph.rebuttal g ~accuser:1 ~accused:2 ~outcome:Graph.Shifted in
  ignore (f, t, r);
  g

let test_jsonl_stable_and_tap_streams_everything () =
  let streamed = ref [] in
  let g = Graph.create () in
  Graph.set_tap g (fun line -> streamed := line :: !streamed);
  Graph.set_param g "guilt_threshold" 0.4;
  let p = Graph.probe g ~prober:1 ~link:2 ~time:3.5 ~up:false ~tapped:false ~forged:true in
  let c = Graph.accusation g ~accuser:1 ~accused:2 ~blame:0.5 ~time:3.5 in
  Graph.edge g ~parent:c ~child:p;
  check Alcotest.int "one line per param, node and edge" 4 (List.length !streamed);
  (* The streamed node lines are exactly the node_line renderings, and the
     full dump is byte-stable across calls. *)
  check Alcotest.string "tap emits node_line bytes" (Graph.node_line g 0)
    (List.nth (List.rev !streamed) 1);
  check Alcotest.string "jsonl is reproducible" (Graph.jsonl g) (Graph.jsonl g);
  let reference = sample_graph () in
  check Alcotest.string "jsonl is a pure function of the calls"
    (Graph.jsonl (sample_graph ()))
    (Graph.jsonl reference)

let test_merge_rebases_shards () =
  let shard0 = Graph.create () in
  Graph.set_param shard0 "accuracy" 0.8;
  let a0 = Graph.probe shard0 ~prober:1 ~link:1 ~time:1. ~up:true ~tapped:false ~forged:false in
  let v0 =
    Graph.verdict shard0 ~judge:1 ~suspect:2 ~kind:Graph.Innocent ~exonerated:false
      ~usable_rounds:3 ~blame:0.1 ~drop_time:5.
  in
  Graph.edge shard0 ~parent:v0 ~child:a0;
  let shard1 = Graph.create () in
  Graph.set_param shard1 "accuracy" 0.9;
  let a1 = Graph.probe shard1 ~prober:7 ~link:9 ~time:2. ~up:false ~tapped:true ~forged:false in
  let v1 =
    Graph.verdict shard1 ~judge:7 ~suspect:8 ~kind:Graph.Guilty ~exonerated:false
      ~usable_rounds:4 ~blame:0.8 ~drop_time:6.
  in
  Graph.edge shard1 ~parent:v1 ~child:a1;
  let merged = Graph.merge [| shard0; shard1 |] in
  check Alcotest.int "nodes add" 4 (Graph.node_count merged);
  check Alcotest.int "edges add" 2 (Graph.edge_count merged);
  (* Shard 1's ids are rebased past shard 0's arena. *)
  check (Alcotest.list Alcotest.int) "rebased children" [ a1 + 2 ]
    (Graph.children merged (v1 + 2));
  check (Alcotest.list Alcotest.int) "verdicts in id order" [ v0; v1 + 2 ]
    (Graph.verdicts merged);
  check (Alcotest.option (Alcotest.float 0.)) "later shard wins params" (Some 0.9)
    (Graph.param merged "accuracy");
  check Alcotest.string "merge is byte-reproducible"
    (Graph.jsonl (Graph.merge [| shard0; shard1 |]))
    (Graph.jsonl merged);
  let solo = Graph.merge [| shard0 |] in
  check Alcotest.string "singleton merge preserves bytes" (Graph.jsonl shard0)
    (Graph.jsonl solo)

let test_collector_merge_carries_provenance () =
  let shards = Collector.shards 2 in
  Array.iteri
    (fun i shard ->
      let g = shard.Collector.prov in
      ignore
        (Graph.probe g ~prober:i ~link:i ~time:0. ~up:true ~tapped:false ~forged:false
          : Graph.node);
      let span = Trace.span_open shard.Collector.trace ~time:0. "work" in
      Trace.span_close shard.Collector.trace ~time:1. span)
    shards;
  let merged = Collector.merge shards in
  check Alcotest.int "provenance nodes survive collector merge" 2
    (Graph.node_count merged.Collector.prov);
  check Alcotest.int "trace records survive collector merge" 4
    (Trace.length merged.Collector.trace)

(* ---------- Replay: the protocol's own verdicts ---------- *)

(* Group a verdict's probe children into per-link vote runs, exactly as
   bin/explain.exe does: votes were recorded link by link, so consecutive
   same-link probes form one evidence group. *)
let grouped_votes graph vnode =
  let votes =
    List.filter_map
      (fun child ->
        if Graph.kind_of graph child <> "probe" then None
        else
          match Json.parse (Graph.node_line graph (child - 1)) with
          | Error e -> Alcotest.failf "bad probe line: %s" e
          | Ok json ->
              let get name to_ = Option.get (Option.bind (Json.member name json) to_) in
              Some (get "link" Json.to_int, (get "prober" Json.to_int, get "up" Json.to_bool)))
      (Graph.children graph vnode)
  in
  let runs =
    List.fold_left
      (fun acc (link, vote) ->
        match acc with
        | (l, votes) :: rest when l = link -> (l, vote :: votes) :: rest
        | _ -> (link, [ vote ]) :: acc)
      [] votes
  in
  Array.of_list (List.rev_map (fun (_, votes) -> List.rev votes) runs)

let verdict_fields graph vnode =
  match Json.parse (Graph.node_line graph (vnode - 1)) with
  | Error e -> Alcotest.failf "bad verdict line: %s" e
  | Ok json ->
      let get name to_ = Option.get (Option.bind (Json.member name json) to_) in
      ( get "verdict" Json.string_value,
        get "exonerated" Json.to_bool,
        get "blame" Json.to_float )

let test_protocol_verdicts_replay_bit_exactly () =
  let world = World.build (World.tiny_config ~seed:321L) in
  let engine = Engine.create () in
  let graph = world.World.generated.World.Generate.graph in
  let link_state =
    Link_state.create ~link_count:(Topology.link_count graph) ~good_loss:0. ~bad_loss:1.
  in
  let obs = Collector.create () in
  (* Aim every message down one multi-hop route whose middle hop drops,
     with an observation tap lying about one link: adversarial pressure on
     the evidence the provenance graph must still replay. *)
  let rng = Prng.of_seed 17L in
  let n = World.node_count world in
  let rec find_route attempts =
    if attempts = 0 then Alcotest.fail "no multi-hop route found"
    else begin
      let from = Prng.int rng n in
      let dest = Id.random rng in
      match World.overlay_route world ~from ~dest with
      | route when List.length route >= 3 -> (from, dest, List.nth route 1)
      | _ -> find_route (attempts - 1)
    end
  in
  let from, dest, culprit = find_route 5000 in
  let taps =
    {
      Protocol.no_taps with
      Protocol.tap_observation =
        (fun ~time:_ ~prober ~link ~up -> if prober = 1 && link = 0 then not up else up);
    }
  in
  let protocol =
    Protocol.create ~world ~engine ~link_state ~rng:(Prng.of_seed 5L) ~obs ~taps
      Protocol.default_config
      ~behavior:(fun v -> if v = culprit then Protocol.Message_dropper 1.0 else Protocol.Honest)
  in
  Protocol.start_probing protocol ~horizon:600.;
  Engine.run_until engine 600.;
  for _ = 1 to 5 do
    Protocol.send_message protocol ~from ~dest ~payload:"prov" ~on_outcome:(fun _ -> ())
  done;
  Engine.run_until engine 1800.;
  let prov = obs.Collector.prov in
  let config =
    {
      Blame.accuracy = Option.get (Graph.param prov "accuracy");
      delta = Option.get (Graph.param prov "delta");
      guilt_threshold = Option.get (Graph.param prov "guilt_threshold");
    }
  in
  let verdicts = Graph.verdicts prov in
  check Alcotest.bool "run produced verdicts" true (verdicts <> []);
  List.iter
    (fun vnode ->
      let kind, exonerated, recorded = verdict_fields prov vnode in
      let replayed = Blame.blame_of_observations config ~grouped:(grouped_votes prov vnode) in
      check Alcotest.bool
        (Printf.sprintf "verdict %d blame replays bit-exactly" vnode)
        true
        (Int64.bits_of_float replayed = Int64.bits_of_float recorded);
      if kind <> "insufficient" then begin
        let expected = if kind = "guilty" || exonerated then Blame.Guilty else Blame.Innocent in
        check Alcotest.bool
          (Printf.sprintf "verdict %d verdict replays" vnode)
          true
          (Blame.verdict_of_blame config replayed = expected)
      end)
    verdicts;
  (* The trace stays well-formed with taps firing mid-episode, and the
     graph's dump is stable. *)
  (match Trace.validate obs.Collector.trace with
  | Ok () -> ()
  | Error reason -> Alcotest.fail reason);
  check Alcotest.string "provenance dump reproducible" (Graph.jsonl prov) (Graph.jsonl prov)

(* ---------- Flight recorder ---------- *)

let test_flight_ring_evicts_oldest () =
  let flight = Flight.create ~capacity:4 () in
  for i = 1 to 10 do
    Flight.note flight (Printf.sprintf "line-%d" i)
  done;
  check Alcotest.int "held" 4 (Flight.length flight);
  check Alcotest.int "dropped" 6 (Flight.dropped flight);
  check Alcotest.int "recorded" 10 (Flight.recorded flight);
  let dump = Flight.dump ~reason:"test" flight in
  let lines = String.split_on_char '\n' dump |> List.filter (fun l -> l <> "") in
  check Alcotest.int "header plus held lines" 5 (List.length lines);
  check Alcotest.bool "header carries reason and counts" true
    (match Json.parse (List.hd lines) with
    | Ok json -> (
        match Json.member "flight_recorder" json with
        | Some header ->
            Option.bind (Json.member "reason" header) Json.string_value = Some "test"
            && Option.bind (Json.member "dropped" header) Json.to_int = Some 6
        | None -> false)
    | Error _ -> false);
  check (Alcotest.list Alcotest.string) "oldest first"
    [ "line-7"; "line-8"; "line-9"; "line-10" ]
    (List.tl lines)

let test_flight_attach_taps_trace_and_provenance () =
  let obs = Collector.create () in
  let flight = Flight.create () in
  Flight.attach flight obs;
  let span = Trace.span_open obs.Collector.trace ~time:1. "episode" in
  ignore
    (Graph.probe obs.Collector.prov ~prober:1 ~link:2 ~time:1.5 ~up:true ~tapped:false
       ~forged:false
      : Graph.node);
  Trace.span_close obs.Collector.trace ~time:2. span;
  check Alcotest.int "both streams feed the ring" 3 (Flight.length flight);
  (* The streamed lines are the sinks' own JSONL bytes. *)
  let dump = Flight.dump ~reason:"r" flight in
  check Alcotest.bool "ring holds the probe's node line" true
    (let needle = Graph.node_line obs.Collector.prov 0 in
     let re = Str.regexp_string needle in
     match Str.search_forward re dump 0 with exception Not_found -> false | _ -> true)

(* ---------- Time series ---------- *)

let test_timeseries_epochs_and_merge () =
  let shards = Collector.shards 2 in
  let series = Array.init 2 (fun _ -> Timeseries.create ~cadence:10.) in
  Metrics.incr shards.(0).Collector.metrics ~by:3 "c";
  Timeseries.sample series.(0) ~time:5. shards.(0).Collector.metrics;
  Metrics.incr shards.(0).Collector.metrics ~by:2 "c";
  Timeseries.sample series.(0) ~time:15. shards.(0).Collector.metrics;
  Metrics.incr shards.(1).Collector.metrics ~by:10 "c";
  Timeseries.sample series.(1) ~time:7. shards.(1).Collector.metrics;
  (* Snapshots are deep copies: mutating the live registry after sampling
     must not rewrite history. *)
  Metrics.incr shards.(1).Collector.metrics ~by:100 "c";
  let merged = Timeseries.merge series in
  (match Timeseries.samples merged with
  | [ (0, epoch0); (1, epoch1) ] ->
      check Alcotest.int "epoch 0 folds both shards" 13 (Metrics.counter epoch0 "c");
      check Alcotest.int "epoch 1 holds shard 0's later sample" 5 (Metrics.counter epoch1 "c")
  | samples -> Alcotest.failf "unexpected sample count (%d)" (List.length samples));
  let lines =
    String.split_on_char '\n' (Timeseries.jsonl merged) |> List.filter (fun l -> l <> "")
  in
  check Alcotest.int "one line per epoch" 2 (List.length lines);
  check Alcotest.bool "lines carry epoch and counters" true
    (match Json.parse (List.hd lines) with
    | Ok json ->
        Option.bind (Json.member "epoch" json) Json.to_int = Some 0
        && Json.member "counters" json <> None
    | Error _ -> false);
  check Alcotest.string "merge is reproducible"
    (Timeseries.jsonl (Timeseries.merge series))
    (Timeseries.jsonl merged);
  check Alcotest.bool "cadence mismatch rejected" true
    (match Timeseries.merge [| Timeseries.create ~cadence:10.; Timeseries.create ~cadence:20. |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check Alcotest.bool "empty merge rejected" true
    (match Timeseries.merge [||] with exception Invalid_argument _ -> true | _ -> false)

(* ---------- Metrics: bucket boundaries and hot-path allocation ---------- *)

let bucket_count snapshot label =
  (* Extract {"<label>": N} from the snapshot's histogram rendering. *)
  let re = Str.regexp (Printf.sprintf {|"%s": \([0-9]+\)|} (Str.quote label)) in
  match Str.search_forward re snapshot 0 with
  | exception Not_found -> 0
  | _ -> int_of_string (Str.matched_group 1 snapshot)

let test_histogram_power_of_two_boundaries () =
  let m = Metrics.create () in
  (* Exact powers of two belong to the bucket they open: [2^k, 2^k+1).
     The old libm-log2 bucketing misfiled them one bucket down whenever
     log2 rounded below the integer. *)
  List.iter (Metrics.observe m "h") [ 0.5; 1.; 1.999999; 2.; 3.999999; 4.; 1024. ];
  let snapshot = Metrics.snapshot_json m in
  check Alcotest.int "sub-2 values clamp to 2^0" 3 (bucket_count snapshot "2^0");
  check Alcotest.int "[2,4) fills 2^1" 2 (bucket_count snapshot "2^1");
  check Alcotest.int "4.0 opens 2^2" 1 (bucket_count snapshot "2^2");
  check Alcotest.int "1024 lands in 2^10" 1 (bucket_count snapshot "2^10")

let test_incr_allocates_nothing_on_hot_path () =
  let m = Metrics.create () in
  Metrics.incr m "hot";
  (* Binding pass done; the steady-state increment must not allocate. *)
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Metrics.incr m "hot"
  done;
  let allocated = Gc.minor_words () -. before in
  check Alcotest.bool
    (Printf.sprintf "no minor allocation in steady-state incr (%.0f words)" allocated)
    true (allocated < 64.);
  check Alcotest.int "counts kept" 10_001 (Metrics.counter m "hot")

let suites =
  [
    ( "provenance.graph",
      [
        Alcotest.test_case "arena construction" `Quick test_arena_construction;
        Alcotest.test_case "noop graph records nothing" `Quick test_noop_graph_records_nothing;
        Alcotest.test_case "jsonl stable, tap streams everything" `Quick
          test_jsonl_stable_and_tap_streams_everything;
        Alcotest.test_case "merge rebases shards" `Quick test_merge_rebases_shards;
        Alcotest.test_case "collector merge carries provenance" `Quick
          test_collector_merge_carries_provenance;
      ] );
    ( "provenance.replay",
      [
        Alcotest.test_case "protocol verdicts replay bit-exactly" `Quick
          test_protocol_verdicts_replay_bit_exactly;
      ] );
    ( "obs.flight",
      [
        Alcotest.test_case "ring evicts oldest" `Quick test_flight_ring_evicts_oldest;
        Alcotest.test_case "attach taps trace and provenance" `Quick
          test_flight_attach_taps_trace_and_provenance;
      ] );
    ( "obs.timeseries",
      [
        Alcotest.test_case "epochs and merge" `Quick test_timeseries_epochs_and_merge;
      ] );
    ( "obs.metrics_regressions",
      [
        Alcotest.test_case "power-of-two bucket boundaries" `Quick
          test_histogram_power_of_two_boundaries;
        Alcotest.test_case "incr hot path allocates nothing" `Quick
          test_incr_allocates_nothing_on_hot_path;
      ] );
  ]
