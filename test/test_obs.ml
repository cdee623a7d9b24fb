(* Observability layer: trace well-formedness, deterministic shard merging,
   export formats, and the instrumented protocol's accounting. *)

module Trace = Concilium_obs.Trace
module Metrics = Concilium_obs.Metrics
module Collector = Concilium_obs.Collector
module Export = Concilium_obs.Export
module Flight = Concilium_obs.Flight
module Json = Concilium_util.Json
module World = Concilium_core.World
module Protocol = Concilium_core.Protocol
module Dht = Concilium_core.Dht
module Blame = Concilium_core.Blame
module Commitment = Concilium_core.Commitment
module Accusation = Concilium_core.Accusation
module Engine = Concilium_netsim.Engine
module Link_state = Concilium_netsim.Link_state
module Graph = Concilium_topology.Graph
module Id = Concilium_overlay.Id
module Pastry = Concilium_overlay.Pastry
module Pki = Concilium_crypto.Pki
module Prng = Concilium_util.Prng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---------- Trace sink ---------- *)

let test_span_nesting_validates () =
  let t = Trace.create () in
  let episode = Trace.span_open t ~time:1. ~cat:"episode" "episode" in
  Trace.instant t ~time:1. ~span:episode "episode.detect";
  let burst = Trace.span_open t ~time:2. ~parent:episode "probe.heavy_burst" in
  Trace.span_close t ~time:3. burst;
  Trace.span_close t ~time:4. episode;
  (match Trace.validate t with
  | Ok () -> ()
  | Error reason -> Alcotest.fail reason);
  check Alcotest.int "records" 5 (Trace.length t);
  match Trace.completed_spans t with
  | [ ("probe.heavy_burst", 2., 1.); ("episode", 1., 3.) ] -> ()
  | spans -> Alcotest.failf "unexpected spans (%d)" (List.length spans)

let test_validate_rejects_malformed () =
  let unclosed = Trace.create () in
  let (_ : Trace.span) = Trace.span_open unclosed ~time:0. "dangling" in
  check Alcotest.bool "unclosed span rejected" true
    (Result.is_error (Trace.validate unclosed));
  let inverted = Trace.create () in
  let parent = Trace.span_open inverted ~time:0. "parent" in
  let child = Trace.span_open inverted ~time:1. ~parent "child" in
  Trace.span_close inverted ~time:2. parent;
  Trace.span_close inverted ~time:3. child;
  check Alcotest.bool "parent closed over open child rejected" true
    (Result.is_error (Trace.validate inverted))

let test_noop_sinks_record_nothing () =
  check Alcotest.bool "trace noop disabled" false (Trace.enabled Trace.noop);
  let span = Trace.span_open Trace.noop ~time:0. "ignored" in
  Trace.span_close Trace.noop ~time:1. span;
  Trace.instant Trace.noop ~time:0. "ignored";
  check Alcotest.int "trace noop empty" 0 (Trace.length Trace.noop);
  Metrics.incr Metrics.noop "c";
  Metrics.observe Metrics.noop "h" 3.;
  check Alcotest.int "metrics noop counter" 0 (Metrics.counter Metrics.noop "c");
  check Alcotest.bool "collector noop disabled" false (Collector.enabled Collector.noop)

let test_trace_merge_concatenates_in_shard_order () =
  let shards = Collector.shards 3 in
  Array.iteri
    (fun i shard ->
      let span =
        Trace.span_open shard.Collector.trace ~time:(float_of_int i) "shard.work"
      in
      Trace.span_close shard.Collector.trace ~time:(float_of_int i +. 0.5) span)
    shards;
  let merged = Collector.merge shards in
  (match Trace.validate merged.Collector.trace with
  | Ok () -> ()
  | Error reason -> Alcotest.fail reason);
  check Alcotest.int "record counts add" 6 (Trace.length merged.Collector.trace);
  let again = Collector.merge shards in
  check Alcotest.string "merge is reproducible"
    (Trace.jsonl merged.Collector.trace)
    (Trace.jsonl again.Collector.trace)

(* ---------- Export formats ---------- *)

let sample_trace () =
  let t = Trace.create () in
  let span = Trace.span_open t ~time:1. ~cat:"episode" ~args:[ ("n", Trace.Int 2) ] "episode" in
  Trace.instant t ~time:1.5 ~cat:"probe" "probe.round";
  Trace.span_close t ~time:2. ~args:[ ("ok", Trace.Bool true) ] span;
  t

let test_jsonl_and_chrome_shapes () =
  let t = sample_trace () in
  let lines = String.split_on_char '\n' (Trace.jsonl t) |> List.filter (fun l -> l <> "") in
  check Alcotest.int "one line per record" (Trace.length t) (List.length lines);
  List.iter
    (fun line ->
      check Alcotest.bool "line is a json object" true
        (String.length line > 2
        && line.[0] = '{'
        && line.[String.length line - 1] = '}'))
    lines;
  let chrome = Trace.chrome t in
  check Alcotest.bool "chrome document shape" true
    (String.length chrome > 15 && String.sub chrome 0 15 = {|{"traceEvents":|})

let test_export_helpers () =
  (match Export.format_of_path "out/trace.json" with
  | Export.Chrome -> ()
  | Export.Jsonl -> Alcotest.fail ".json must select chrome format");
  (match Export.format_of_path "out/trace.jsonl" with
  | Export.Jsonl -> ()
  | Export.Chrome -> Alcotest.fail "non-.json must select jsonl");
  check Alcotest.bool "empty spec means no filter" true
    (Export.filter_of_spec None = None && Export.filter_of_spec (Some "") = None);
  match Export.filter_of_spec (Some "episode,probe") with
  | None -> Alcotest.fail "spec must build a filter"
  | Some keep ->
      check Alcotest.bool "keeps listed categories" true (keep "episode" && keep "probe");
      check Alcotest.bool "drops others" false (keep "dht");
      let t = sample_trace () in
      let filtered = Trace.jsonl ~filter:(fun cat -> cat = "probe") t in
      let lines =
        String.split_on_char '\n' filtered |> List.filter (fun l -> l <> "")
      in
      check Alcotest.int "filter keeps only probe records" 1 (List.length lines)

(* Control bytes and UTF-8 must export as standard JSON, not OCaml's %S
   escapes, and survive a parse round trip. *)
let test_exports_are_json () =
  let odd = "a\001\195\169" in
  let parse line =
    match Json.parse line with
    | Ok v -> v
    | Error message -> Alcotest.failf "%s: %s" message line
  in
  let field name v = Option.bind (Json.member name v) Json.string_value in
  let t = Trace.create () in
  let flight = Flight.create () in
  Trace.set_tap t (Flight.note flight);
  Trace.instant t ~time:1.0 ~args:[ ("why", Trace.String odd) ] odd;
  let record = parse (String.trim (Trace.jsonl t)) in
  check Alcotest.(option string) "trace name round-trips" (Some odd) (field "name" record);
  check Alcotest.(option string) "trace arg round-trips" (Some odd)
    (Option.bind (Json.member "args" record) (field "why"));
  match String.split_on_char '\n' (Flight.dump ~reason:odd flight) with
  | header :: line :: _ ->
      check Alcotest.(option string) "flight reason round-trips" (Some odd)
        (Option.bind (Json.member "flight_recorder" (parse header)) (field "reason"));
      check Alcotest.(option string) "flight line round-trips" (Some odd) (field "name" (parse line))
  | _ -> Alcotest.fail "flight dump has no entries"

(* ---------- Metrics: merging shards equals one collector ---------- *)

(* An operation is (kind, name index, magnitude); the name pool is disjoint
   per kind so no generated sequence can rebind a name to another kind. *)
let apply_op metrics (kind, name, value) =
  match kind mod 3 with
  | 0 -> Metrics.incr metrics ~by:((value mod 7) + 1) ("c" ^ string_of_int (name mod 3))
  | 1 -> Metrics.set metrics ("g" ^ string_of_int (name mod 3)) (float_of_int value)
  | _ -> Metrics.observe metrics ("h" ^ string_of_int (name mod 3)) (float_of_int value)

let merge_equals_single_collector =
  QCheck.Test.make ~name:"merging shard collectors in order equals one collector"
    ~count:200
    QCheck.(small_list (small_list (triple (int_bound 2) (int_bound 2) (int_bound 4096))))
    (fun per_shard_ops ->
      let shard_count = List.length per_shard_ops in
      let shards = Collector.shards shard_count in
      List.iteri
        (fun i ops -> List.iter (apply_op shards.(i).Collector.metrics) ops)
        per_shard_ops;
      let single = Collector.create () in
      List.iter
        (fun ops -> List.iter (apply_op single.Collector.metrics) ops)
        per_shard_ops;
      let merged = Collector.merge shards in
      Metrics.snapshot_json merged.Collector.metrics
      = Metrics.snapshot_json single.Collector.metrics)

let test_metrics_snapshot_shape () =
  let m = Metrics.create () in
  Metrics.incr m "b.counter";
  Metrics.incr m ~by:4 "a.counter";
  Metrics.set m "gauge" 2.5;
  List.iter (Metrics.observe m "latency") [ 1.; 2.; 4.; 4. ];
  check Alcotest.int "counter reads back" 4 (Metrics.counter m "a.counter");
  check Alcotest.int "unbound counter is zero" 0 (Metrics.counter m "absent");
  (match Metrics.counters m with
  | [ ("a.counter", 4); ("b.counter", 1) ] -> ()
  | counters -> Alcotest.failf "unexpected counters (%d)" (List.length counters));
  let snapshot = Metrics.snapshot_json ~time:10. m in
  List.iter
    (fun needle ->
      check Alcotest.bool (Printf.sprintf "snapshot mentions %s" needle) true
        (let re = Str.regexp_string needle in
         match Str.search_forward re snapshot 0 with
         | exception Not_found -> false
         | _ -> true))
    [ {|"time": 10|}; {|"counters"|}; {|"gauges"|}; {|"histograms"|}; {|"2^0"|}; {|"2^2"|} ]

(* ---------- DHT failover reporting ---------- *)

type principal = { id : Id.t; key : Pki.public_key; secret : Pki.secret_key }

let principal pki seed name =
  let id = Id.random (Prng.of_seed seed) in
  let cert, secret = Pki.issue pki ~address:name ~node_id:(Id.to_hex id) in
  { id; key = cert.Pki.subject_key; secret }

let test_dht_dead_root_reports_failover () =
  let rng = Prng.of_seed 96L in
  let ids = Array.init 64 (fun _ -> Id.random rng) in
  let pastry = Pastry.build ~leaf_half_size:4 ids in
  let dht = Dht.create ~pastry ~replication:3 in
  let pki = Pki.create ~seed:90L in
  let alice = principal pki 91L "alice" in
  let bob = principal pki 92L "bob" in
  let carol = principal pki 93L "carol" in
  let commitment =
    Commitment.issue ~forwarder:bob.id ~secret:bob.secret ~public:bob.key ~sender:alice.id
      ~destination:carol.id ~message_id:"m1" ~now:99.
  in
  let evidence =
    {
      Accusation.path_links = [| 4 |];
      link_votes =
        [
          {
            Accusation.link = 4;
            votes =
              [
                Accusation.make_vote ~prober:carol.id ~secret:carol.secret ~public:carol.key
                  ~link:4 ~time:100. ~up:true;
              ];
          };
        ];
      drop_time = 100.;
      commitment;
    }
  in
  let accusation =
    Accusation.make ~accuser:alice.id ~secret:alice.secret ~public:alice.key ~accused:bob.id
      ~config:Blame.paper_config ~evidence ~supporting:[] ~now:101.
  in
  let accused_key = Pki.public_key_of_string "bobs-public-key" in
  let key = Dht.key_of_public_key accused_key in
  let root =
    match Dht.replica_nodes dht ~key with
    | root :: _ -> root
    | [] -> Alcotest.fail "no replicas for key"
  in
  let alive v = v <> root in
  let hops = ref 0 in
  let put = Dht.put dht ~from:0 ~alive ~accused_key accusation ~hops in
  check Alcotest.bool "put failed over past the dead root" true put.Dht.put_failed_over;
  check Alcotest.int "still three live replicas" 3 put.Dht.replicas_written;
  let read = Dht.get dht ~from:9 ~alive ~accused_key ~hops () in
  check Alcotest.bool "get failed over too" true read.Dht.get_failed_over;
  check Alcotest.int "record survives the failover" 1 (List.length read.Dht.accusations);
  check Alcotest.int "live replicas answered" 3 read.Dht.replicas_read

(* ---------- Instrumented protocol runs ---------- *)

let world_fixture = lazy (World.build (World.tiny_config ~seed:321L))

let make_session ?(behavior = fun _ -> Protocol.Honest) ?(seed = 5L) () =
  let world = Lazy.force world_fixture in
  let engine = Engine.create () in
  let graph = world.World.generated.World.Generate.graph in
  let link_state =
    Link_state.create ~link_count:(Graph.link_count graph) ~good_loss:0. ~bad_loss:1.
  in
  let obs = Collector.create () in
  let protocol =
    Protocol.create ~world ~engine ~link_state ~rng:(Prng.of_seed seed) ~obs
      Protocol.default_config ~behavior
  in
  (world, engine, protocol, obs)

let route_with_intermediate world =
  let n = World.node_count world in
  let rng = Prng.of_seed 17L in
  let rec search attempts =
    if attempts = 0 then Alcotest.fail "no multi-hop route found"
    else begin
      let from = Prng.int rng n in
      let dest = Id.random rng in
      let route = World.overlay_route world ~from ~dest in
      if List.length route >= 3 then (from, dest, route) else search (attempts - 1)
    end
  in
  search 5000

(* One dropped message diagnosed end to end, with the collector watching. *)
let dropper_run ?(seed = 5L) () =
  let world = Lazy.force world_fixture in
  let from, dest, route = route_with_intermediate world in
  let culprit = match route with _ :: hop :: _ -> hop | _ -> Alcotest.fail "short route" in
  let behavior v = if v = culprit then Protocol.Message_dropper 1.0 else Protocol.Honest in
  let _, engine, protocol, obs = make_session ~behavior ~seed () in
  Protocol.start_probing protocol ~horizon:600.;
  Engine.run_until engine 600.;
  Protocol.send_message protocol ~from ~dest ~payload:"x" ~on_outcome:(fun _ -> ());
  Engine.run_until engine 1200.;
  (protocol, obs)

let span_names trace =
  List.sort_uniq String.compare
    (List.map (fun (name, _, _) -> name) (Trace.completed_spans trace))

let test_protocol_run_traces_complete_episode () =
  let _, obs = dropper_run () in
  let trace = obs.Collector.trace in
  (match Trace.validate trace with
  | Ok () -> ()
  | Error reason -> Alcotest.fail reason);
  let names = span_names trace in
  List.iter
    (fun name ->
      check Alcotest.bool (Printf.sprintf "span %s present" name) true
        (List.mem name names))
    [ "message"; "episode"; "probe.round"; "probe.heavy_burst"; "minc.solve";
      "blame.evaluate"; "stewardship.resolve" ];
  check Alcotest.bool "detect instant recorded" true
    (Trace.instants trace ~name:"episode.detect" <> []);
  check Alcotest.bool "verdict instant recorded" true
    (Trace.instants trace ~name:"episode.verdict" <> []);
  let metrics = obs.Collector.metrics in
  check Alcotest.int "one message sent" 1 (Metrics.counter metrics "msg.sent");
  check Alcotest.int "message accounted dropped" 1 (Metrics.counter metrics "msg.dropped");
  check Alcotest.bool "episode counted" true (Metrics.counter metrics "episode.started" >= 1)

let test_protocol_bytes_reconcile_with_bandwidth_totals () =
  let protocol, obs = dropper_run () in
  let metrics = obs.Collector.metrics in
  let metered =
    List.fold_left
      (fun acc name -> acc + Metrics.counter metrics name)
      0
      [ "bytes.probe_stripe"; "bytes.advert_diff"; "bytes.snapshot_exchange";
        "bytes.heavy_probe" ]
  in
  let world = Protocol.world protocol in
  let charged = ref 0 in
  for v = 0 to World.node_count world - 1 do
    charged := !charged + Protocol.control_bytes_sent protocol v
  done;
  check Alcotest.bool "some control bytes were charged" true (metered > 0);
  check Alcotest.int "byte counters reconcile with Bandwidth totals" !charged metered

let seeded_runs_stay_well_formed =
  QCheck.Test.make ~name:"instrumented runs stay well-formed across seeds" ~count:4
    QCheck.(int_range 1 1000)
    (fun seed ->
      let _, obs = dropper_run ~seed:(Int64.of_int seed) () in
      let metrics = obs.Collector.metrics in
      Result.is_ok (Trace.validate obs.Collector.trace)
      && Metrics.counter metrics "msg.sent"
         = Metrics.counter metrics "msg.delivered" + Metrics.counter metrics "msg.dropped")

let suites =
  [
    ( "obs.trace",
      [
        Alcotest.test_case "span nesting validates" `Quick test_span_nesting_validates;
        Alcotest.test_case "malformed traces rejected" `Quick test_validate_rejects_malformed;
        Alcotest.test_case "noop sinks record nothing" `Quick test_noop_sinks_record_nothing;
        Alcotest.test_case "shard merge order" `Quick test_trace_merge_concatenates_in_shard_order;
      ] );
    ( "obs.export",
      [
        Alcotest.test_case "jsonl and chrome shapes" `Quick test_jsonl_and_chrome_shapes;
        Alcotest.test_case "path formats and filters" `Quick test_export_helpers;
        Alcotest.test_case "control bytes and UTF-8 export as JSON" `Quick test_exports_are_json;
      ] );
    ( "obs.metrics",
      [
        qtest merge_equals_single_collector;
        Alcotest.test_case "snapshot shape" `Quick test_metrics_snapshot_shape;
      ] );
    ( "obs.dht",
      [
        Alcotest.test_case "dead root reports failover" `Quick
          test_dht_dead_root_reports_failover;
      ] );
    ( "obs.protocol",
      [
        Alcotest.test_case "complete episode traced" `Quick
          test_protocol_run_traces_complete_episode;
        Alcotest.test_case "byte counters reconcile" `Quick
          test_protocol_bytes_reconcile_with_bandwidth_totals;
        qtest seeded_runs_stay_well_formed;
      ] );
  ]
