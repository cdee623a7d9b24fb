(* One iteration of one Concilium benchmark workload.

   Usage: bench.exe WORKLOAD SEED [--traced] [--tiny] [--check-sequential]
                    [--setup-only]

   Each iteration runs in a fresh process, so peak RSS and heap state never
   carry over from one iteration to the next. The last line on stdout is one
   JSON object holding this iteration's raw timings, counts, output digest
   and the names of any failed checks; perfbench/run.py repeats iterations
   over its measuring window and aggregates them.

   Untraced, the simulation workloads are the composition bin/concilium_sim
   runs (same calls, same order, same seeds), so a seed-7 sim-default
   iteration reproduces that tool's summary byte for byte in the record's
   "summary" field. [--traced] drives the engine one step at a time and
   attributes each step's wall time and minor allocation to the layer whose
   span it opens first, streaming span records through [Trace.set_tap]. *)

module World = Concilium_core.World
module Protocol = Concilium_core.Protocol
module Stewardship = Concilium_core.Stewardship
module Engine = Concilium_netsim.Engine
module Link_state = Concilium_netsim.Link_state
module Link_history = Concilium_netsim.Link_history
module Failures = Concilium_netsim.Failures
module Churn = Concilium_netsim.Churn
module Generate = Concilium_topology.Generate
module Graph = Concilium_topology.Graph
module Routes = Concilium_topology.Routes
module Id = Concilium_overlay.Id
module Pastry = Concilium_overlay.Pastry
module Pki = Concilium_crypto.Pki
module Tree = Concilium_tomography.Tree
module Logical_tree = Concilium_tomography.Logical_tree
module Observation = Concilium_tomography.Observation
module Prng = Concilium_util.Prng
module Pool = Concilium_util.Pool
module Collector = Concilium_obs.Collector
module Trace = Concilium_obs.Trace
module Metrics = Concilium_obs.Metrics
module Blame_world = Concilium_experiments.Blame_world
module Histogram = Concilium_stats.Histogram

let now = Unix.gettimeofday

(* ---------- Result record ---------- *)

type value = F of float | I of int | S of string

let fields : (string * value) list ref = ref []
let put key v = fields := (key, v) :: !fields
let putf key f = put key (F f)
let puti key i = put key (I i)
let failed_checks : string list ref = ref []
let check ok name = if not ok then failed_checks := name :: !failed_checks

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_value = function
  | F f -> if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
  | I i -> string_of_int i
  | S s -> json_string s

let emit () =
  let body =
    List.rev_map (fun (k, v) -> json_string k ^ ": " ^ json_value v) !fields
    @ [
        "\"failed_checks\": ["
        ^ String.concat ", " (List.rev_map json_string !failed_checks)
        ^ "]";
      ]
  in
  print_string ("{" ^ String.concat ", " body ^ "}\n")

(* VmHWM: the process's peak resident set, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Minor words allocated by every domain, including pool workers that have
   been joined. *)
let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let minor_mwords_since m0 = (minor_words () -. m0) /. 1e6

(* ---------- Setup replay: World.build's public calls, one layer each ---------- *)

(* The same calls, in the same order and on the same seed, as World.build,
   timed per layer. Returned alongside the per-layer seconds so the caller
   can check the replay against the real World.build. *)
let replay_world_build (config : World.config) =
  let t0 = now () in
  let generated = Generate.generate config.World.topology in
  let t_generate = now () in
  let graph = generated.Generate.graph in
  let rng = Prng.of_seed config.World.seed in
  let hosts = Graph.end_hosts graph in
  let member_count =
    max 2
      (int_of_float
         (Float.round (config.World.overlay_fraction *. float_of_int (Array.length hosts))))
  in
  let chosen = Prng.sample_without_replacement rng member_count (Array.length hosts) in
  let host_router = Array.map (fun i -> hosts.(i)) chosen in
  let pki = Pki.create ~seed:(Prng.int64 rng) in
  let ids = Array.init member_count (fun _ -> Id.random rng) in
  let certificates =
    Array.init member_count (fun v ->
        fst
          (Pki.issue pki
             ~address:
               (Printf.sprintf "10.%d.%d.%d" (host_router.(v) lsr 16)
                  ((host_router.(v) lsr 8) land 0xFF)
                  (host_router.(v) land 0xFF))
             ~node_id:(Id.to_hex ids.(v))))
  in
  let t_pki = now () in
  let pastry = Pastry.build ~leaf_half_size:config.World.leaf_half_size ids in
  let peers = Array.init member_count (fun v -> Pastry.routing_peers pastry v) in
  let t_pastry = now () in
  let peer_paths =
    Array.init member_count (fun v ->
        let targets = Array.map (fun peer -> host_router.(peer)) peers.(v) in
        Routes.shortest_paths graph ~source:host_router.(v) ~targets)
  in
  let t_routes = now () in
  let trees =
    Array.init member_count (fun v ->
        let paths = Array.of_list (List.filter_map Fun.id (Array.to_list peer_paths.(v))) in
        Tree.of_paths ~root:host_router.(v) ~paths)
  in
  let logical = Array.map Logical_tree.of_tree trees in
  (* The per-link voucher index World.build derives from the trees. *)
  let vouchers = Array.make (Graph.link_count graph) 0 in
  Array.iter
    (fun tree ->
      Array.iter (fun l -> vouchers.(l) <- vouchers.(l) + 1) (Tree.physical_links tree))
    trees;
  let t_trees = now () in
  ( [
      ("topology.generate_s", t_generate -. t0);
      ("crypto.pki_issue_s", t_pki -. t_generate);
      ("overlay.pastry_build_s", t_pastry -. t_pki);
      ("topology.routes_s", t_routes -. t_pastry);
      ("tomography.tree_build_s", t_trees -. t_routes);
    ],
    member_count,
    (host_router, ids, certificates, peers, peer_paths, trees, logical, vouchers) )

let same_tree a b =
  Tree.root a = Tree.root b
  && Tree.node_count a = Tree.node_count b
  && Tree.physical_links a = Tree.physical_links b
  && Tree.leaves a = Tree.leaves b

let check_replay world
    (host_router, ids, certificates, peers, peer_paths, trees, logical, vouchers) =
  let n = World.node_count world in
  check (host_router = world.World.host_router) "replay.host_router";
  check (Array.length ids = n && Array.for_all2 Id.equal ids (Array.init n (World.id_of world)))
    "replay.ids";
  check (certificates = world.World.certificates) "replay.certificates";
  check (peers = world.World.peers) "replay.peers";
  check (peer_paths = world.World.peer_paths) "replay.paths";
  check (Array.for_all2 same_tree trees world.World.trees) "replay.trees";
  check
    (Array.for_all2
       (fun a b ->
         Logical_tree.node_count a = Logical_tree.node_count b
         && Logical_tree.leaves a = Logical_tree.leaves b)
       logical world.World.logical)
    "replay.logical_trees";
  let voucher_count l = List.length (World.vouchers world ~link:l) in
  check
    (Array.for_all Fun.id (Array.mapi (fun l c -> c = voucher_count l) vouchers))
    "replay.vouchers"

(* Replay World.build layer by layer, then check the replay against the
   real World.build and that its parts add up to the real build's wall
   time (within a factor of two: the two builds run on different heaps). *)
let replay_setup config =
  let parts, routes_calls, replayed = replay_world_build config in
  List.iter (fun (k, v) -> putf k v) parts;
  puti "topology.routes_calls" routes_calls;
  let t0 = now () in
  let world = World.build config in
  let build_s = now () -. t0 in
  let parts_s = List.fold_left (fun acc (_, v) -> acc +. v) 0. parts in
  putf "core.world_build_s" build_s;
  check (parts_s > 0.5 *. build_s && parts_s < 2. *. build_s) "replay.parts_sum_to_build";
  check_replay world replayed

(* ---------- Traced engine run ---------- *)

(* Step classes: the layer whose span a step opens first (or, for a step
   that opens none, the span it closes first). A probe.round span opens
   only after the round's work is done, so classes are per step, never per
   interval between trace records. *)
let probe_class = 0
let forward_class = 1
let judgment_class = 2
let engine_class = 3

let class_of_span ~opening = function
  | "probe.round" -> Some probe_class
  | "message" | "retransmit.backoff" -> Some forward_class
  (* An episode opens in the step that exhausts the retransmits and closes
     in the judgment step that resolves it. *)
  | "episode" -> Some (if opening then forward_class else judgment_class)
  | "probe.heavy_burst" | "minc.solve" | "blame.evaluate" | "stewardship.resolve" ->
      Some judgment_class
  | _ -> None

(* The spans inside judgment steps whose self time is attributed. *)
let self_spans = [| "probe.heavy_burst"; "minc.solve"; "blame.evaluate"; "stewardship.resolve" |]

type tracer = {
  names : (int, string) Hashtbl.t;  (** open span id -> name *)
  mutable step_class : int option;
  mutable stack : (int * int * float * float ref) list;
      (** open attributed spans: id, index in [self_spans], start, child time *)
  self_s : float array;
  mutable unknown : int;  (** records that did not parse *)
}

(* Index just past the first [sub] at or after [from] in [s], or -1. *)
let index_from s sub from =
  let n = String.length s and m = String.length sub in
  let rec matches i k = k = m || (s.[i + k] = sub.[k] && matches i (k + 1)) in
  let rec go i = if i + m > n then -1 else if matches i 0 then i + m else go (i + 1) in
  go from

let int_at s i =
  let j = ref i in
  while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
  int_of_string (String.sub s i (!j - i))

let string_at s i =
  (* [i] points at an opening quote; names never contain escapes. *)
  let j = String.index_from s (i + 1) '"' in
  String.sub s (i + 1) (j - i - 1)

let self_index name =
  let rec go i =
    if i >= Array.length self_spans then -1 else if self_spans.(i) = name then i else go (i + 1)
  in
  go 0

let on_record tr line =
  let t = now () in
  let ph = index_from line "\"ph\": " 0 in
  if ph < 0 then tr.unknown <- tr.unknown + 1
  else
    match string_at line ph with
    | "open" ->
        let id = int_at line (index_from line "\"id\": " ph) in
        let name = string_at line (index_from line "\"name\": " ph) in
        Hashtbl.replace tr.names id name;
        if tr.step_class = None then tr.step_class <- class_of_span ~opening:true name;
        let k = self_index name in
        if k >= 0 then tr.stack <- (id, k, t, ref 0.) :: tr.stack
    | "close" -> (
        let id = int_at line (index_from line "\"id\": " ph) in
        let name = Hashtbl.find_opt tr.names id in
        Hashtbl.remove tr.names id;
        (match (tr.step_class, name) with
        | None, Some name -> tr.step_class <- class_of_span ~opening:false name
        | _ -> ());
        match tr.stack with
        | (top, k, start, child) :: rest when top = id ->
            let d = t -. start in
            tr.self_s.(k) <- tr.self_s.(k) +. (d -. !child);
            tr.stack <- rest;
            (match rest with
            | (_, _, _, parent_child) :: _ -> parent_child := !parent_child +. d
            | [] -> ())
        | _ -> ())
    | _ -> ()

type step_totals = {
  wall : float array;
  minor : float array;
  steps : int array;
  quarter_wall : float array;  (** judgment-step wall per quarter of virtual time *)
  quarter_steps : int array;
  mutable queue_max : int;
  mutable loop_wall : float;
}

(* Drive the engine to [duration] one step at a time. A sentinel event at
   the horizon ends the stepping; run_until then drains the events that
   share the horizon instant, exactly as an untraced run_until would. The
   sentinel draws no randomness and only takes the next sequence number, so
   every other event keeps its order. *)
let traced_run engine tr ~duration =
  let totals =
    {
      wall = Array.make 4 0.;
      minor = Array.make 4 0.;
      steps = Array.make 4 0;
      quarter_wall = Array.make 4 0.;
      quarter_steps = Array.make 4 0;
      queue_max = Engine.pending engine;
      loop_wall = 0.;
    }
  in
  let at_horizon = ref false in
  Engine.schedule_at engine ~time:duration (fun _ -> at_horizon := true);
  let start = now () in
  let running = ref true in
  while !running do
    tr.step_class <- None;
    let m0 = Gc.minor_words () in
    let t0 = now () in
    let stepped = Engine.step engine in
    let t1 = now () in
    let m1 = Gc.minor_words () in
    if not stepped then running := false
    else begin
      let c = Option.value tr.step_class ~default:engine_class in
      let dt = t1 -. t0 in
      totals.wall.(c) <- totals.wall.(c) +. dt;
      totals.minor.(c) <- totals.minor.(c) +. (m1 -. m0);
      totals.steps.(c) <- totals.steps.(c) + 1;
      if c = judgment_class then begin
        let q = min 3 (int_of_float (4. *. Engine.now engine /. duration)) in
        totals.quarter_wall.(q) <- totals.quarter_wall.(q) +. dt;
        totals.quarter_steps.(q) <- totals.quarter_steps.(q) + 1
      end;
      totals.queue_max <- max totals.queue_max (Engine.pending engine);
      if !at_horizon then running := false
    end
  done;
  (* The sentinel itself is no program work. *)
  totals.steps.(engine_class) <- totals.steps.(engine_class) - 1;
  let m0 = Gc.minor_words () in
  let t0 = now () in
  Engine.run_until engine duration;
  let t1 = now () in
  totals.wall.(engine_class) <- totals.wall.(engine_class) +. (t1 -. t0);
  totals.minor.(engine_class) <- totals.minor.(engine_class) +. (Gc.minor_words () -. m0);
  totals.loop_wall <- t1 -. start;
  totals

(* ---------- Simulation workloads ---------- *)

type sim = {
  world_config : seed:int64 -> World.config;
  duration : float;  (** virtual seconds *)
  messages : int;
  dropper_fraction : float;
  drop_probability : float;
  churn : bool;
  exchange : bool;  (** one exchange_advertisements call before the run *)
}

let sim_of_workload ~tiny name =
  let base =
    match name with
    | "sim-default" ->
        Some
          {
            world_config = World.small_config;
            duration = 7200.;
            messages = 400;
            dropper_fraction = 0.1;
            drop_probability = 0.8;
            churn = false;
            exchange = true;
          }
    | "diagnose-heavy" ->
        Some
          {
            world_config = World.small_config;
            duration = 1800.;
            messages = 500;
            dropper_fraction = 0.2;
            drop_probability = 0.8;
            churn = true;
            exchange = false;
          }
    | _ -> None
  in
  if not tiny then base
  else
    Option.map
      (fun s ->
        {
          s with
          world_config = World.tiny_config;
          duration = 1200.;
          messages = max 20 (s.messages / 10);
        })
      base

type tally = {
  mutable sent : int;
  mutable delivered : int;
  mutable correct_node : int;
  mutable correct_network : int;
  mutable wrong : int;
  mutable undiagnosed : int;
}

let drop_label = function
  | None -> "none"
  | Some (Protocol.Dropped_by_overlay d) -> Printf.sprintf "overlay:%d" d
  | Some (Protocol.Dropped_on_ip_link l) -> Printf.sprintf "link:%d" l
  | Some (Protocol.Ack_lost_on_link l) -> Printf.sprintf "ack:%d" l
  | Some (Protocol.Hop_offline v) -> Printf.sprintf "offline:%d" v

let target_label = function
  | None -> "none"
  | Some Stewardship.Network -> "network"
  | Some (Stewardship.Next_hop v) -> Printf.sprintf "hop:%d" v
  | Some (Stewardship.Offline v) -> Printf.sprintf "offline:%d" v

let diagnosis_label = function
  | None -> "-"
  | Some (Protocol.Diagnosed r) -> "diagnosed:" ^ target_label r.Stewardship.final
  | Some (Protocol.Insufficient_evidence { judge; usable_rounds; required_rounds }) ->
      Printf.sprintf "insufficient:%d:%d:%d" judge usable_rounds required_rounds

(* concilium_sim's scoring of one undelivered message. *)
let score stats (outcome : Protocol.outcome) =
  match outcome.Protocol.diagnosis with
  | None
  | Some (Protocol.Diagnosed { Stewardship.final = None; _ })
  | Some (Protocol.Insufficient_evidence _) ->
      stats.undiagnosed <- stats.undiagnosed + 1
  | Some (Protocol.Diagnosed { Stewardship.final = Some target; _ }) -> (
      let correct =
        match (target, outcome.Protocol.drop) with
        | Stewardship.Next_hop v, Some (Protocol.Dropped_by_overlay d) -> v = d
        | Stewardship.Network, Some (Protocol.Dropped_on_ip_link _)
        | Stewardship.Network, Some (Protocol.Ack_lost_on_link _) ->
            true
        | (Stewardship.Next_hop v | Stewardship.Offline v), Some (Protocol.Hop_offline d) -> v = d
        | _ -> false
      in
      if not correct then stats.wrong <- stats.wrong + 1
      else
        match target with
        | Stewardship.Next_hop _ | Stewardship.Offline _ ->
            stats.correct_node <- stats.correct_node + 1
        | Stewardship.Network -> stats.correct_network <- stats.correct_network + 1)

type sim_state = {
  world : World.t;
  engine : Engine.t;
  protocol : Protocol.t;
  message_rng : Prng.t;
}

(* World build through start_probing: concilium_sim's calls, in its order
   and on its seeds. *)
let setup_sim spec ~seed ~obs =
  let world = World.build (spec.world_config ~seed) in
  let graph = world.World.generated.World.Generate.graph in
  let node_count = World.node_count world in
  let duration = spec.duration in
  let rng = Prng.of_seed (Int64.add seed 11L) in
  let failures =
    Failures.generate ~rng:(Prng.split rng) ~config:Failures.paper_config
      ~link_count:(Graph.link_count graph) ~routes:(World.all_peer_paths world) ~duration
  in
  let engine = Engine.create () in
  let link_state =
    Link_state.create ~link_count:(Graph.link_count graph) ~good_loss:0.001 ~bad_loss:0.9
  in
  Link_history.replay failures.Failures.history ~engine ~state:link_state ~horizon:duration;
  let dropper_count =
    int_of_float (Float.round (spec.dropper_fraction *. float_of_int node_count))
  in
  let droppers = Prng.sample_without_replacement rng dropper_count node_count in
  let is_dropper = Array.make node_count false in
  Array.iter (fun v -> is_dropper.(v) <- true) droppers;
  let behavior v =
    if is_dropper.(v) then Protocol.Message_dropper spec.drop_probability else Protocol.Honest
  in
  let availability =
    if not spec.churn then fun ~time:_ _ -> true
    else begin
      let timeline =
        Churn.generate ~rng:(Prng.split rng) ~config:Churn.default_config ~hosts:node_count
          ~duration
      in
      fun ~time host -> Churn.is_online timeline ~host ~time
    end
  in
  let protocol =
    Protocol.create ~world ~engine ~link_state ~rng:(Prng.split rng) ~availability ~obs
      Protocol.default_config ~behavior
  in
  Protocol.start_probing protocol ~horizon:duration;
  { world; engine; protocol; message_rng = Prng.split rng }

(* concilium_sim's summary, line for line. *)
let summary_text spec world stats ~flagged ~validations ~bandwidth =
  let graph = world.World.generated.World.Generate.graph in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "world: %d routers, %d links, %d overlay nodes\n" (Graph.node_count graph)
       (Graph.link_count graph) (World.node_count world));
  if spec.exchange then
    Buffer.add_string b
      (Printf.sprintf
         "routing-state validation: %d/%d advertisements flagged (%.1f%%; density-test false \
          positives in an honest world)\n"
         flagged validations
         (100. *. float_of_int flagged /. float_of_int (max 1 validations)));
  Buffer.add_string b
    (Printf.sprintf
       "\nmessages: %d sent, %d delivered, %d dropped\ndiagnoses: %d correct (node), %d correct \
        (network), %d wrong, %d undiagnosed\n"
       stats.sent stats.delivered (stats.sent - stats.delivered) stats.correct_node
       stats.correct_network stats.wrong stats.undiagnosed);
  let diagnosed = stats.correct_node + stats.correct_network + stats.wrong in
  if diagnosed > 0 then
    Buffer.add_string b
      (Printf.sprintf "diagnosis accuracy: %.1f%%\n"
         (100.
         *. float_of_int (stats.correct_node + stats.correct_network)
         /. float_of_int diagnosed));
  Buffer.add_string b
    (Printf.sprintf
       "control-plane bandwidth: %.0f B/s per node (probes + snapshot diffs + heavyweight \
        bursts)\n"
       bandwidth);
  Buffer.contents b

(* Per-message outcomes, flagged pairs and per-node control bytes. *)
let sim_digest outcomes fired reports control_bytes =
  let b = Buffer.create 4096 in
  Array.iteri
    (fun i o ->
      match o with
      | None -> Buffer.add_string b (Printf.sprintf "%d:none\n" i)
      | Some (o : Protocol.outcome) ->
          Buffer.add_string b
            (Printf.sprintf "%d:%d:%b:%d:%s:%s:%s:%s\n" i fired.(i) o.Protocol.delivered
               o.Protocol.attempts
               (String.concat "," (List.map string_of_int o.Protocol.route))
               (drop_label o.Protocol.drop) (diagnosis_label o.Protocol.diagnosis)
               (match o.Protocol.no_commitment_from with None -> "-" | Some v -> string_of_int v)))
    outcomes;
  List.iter
    (fun (r : Protocol.advertisement_report) ->
      Buffer.add_string b
        (Printf.sprintf "flag:%d:%d\n" r.Protocol.advertiser r.Protocol.validator))
    reports;
  Array.iteri (fun v n -> Buffer.add_string b (Printf.sprintf "bytes:%d:%d\n" v n)) control_bytes;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The largest share of the traced engine wall that may fall between steps. *)
let unattributed_tolerance = 0.02

let put_step_layers (s : step_totals) tracer ~probe_rounds =
  let mean_of total count = if count = 0 then 0. else total /. float_of_int count in
  let per_each scale c = scale *. mean_of s.wall.(c) s.steps.(c) in
  putf "protocol.probe_round_s" s.wall.(probe_class);
  puti "protocol.probe_rounds" s.steps.(probe_class);
  putf "protocol.probe_round_us_each" (per_each 1e6 probe_class);
  putf "protocol.probe_minor_mwords" (s.minor.(probe_class) /. 1e6);
  putf "protocol.judgment_s" s.wall.(judgment_class);
  puti "protocol.judgments" s.steps.(judgment_class);
  putf "protocol.judgment_ms_each" (per_each 1e3 judgment_class);
  putf "protocol.judgment_minor_mwords" (s.minor.(judgment_class) /. 1e6);
  let quarter_mean q = mean_of s.quarter_wall.(q) s.quarter_steps.(q) in
  putf "protocol.judgment_growth"
    (if quarter_mean 0 = 0. then 0. else quarter_mean 3 /. quarter_mean 0);
  let heavy_self = tracer.self_s.(0) and minc = tracer.self_s.(1) in
  let blame = tracer.self_s.(2) and steward = tracer.self_s.(3) in
  putf "tomography.heavy_burst_self_s" heavy_self;
  putf "tomography.minc_s" minc;
  putf "core.blame_s" blame;
  putf "core.stewardship_s" steward;
  putf "core.judgment_other_s" (s.wall.(judgment_class) -. heavy_self -. minc -. blame -. steward);
  putf "protocol.forward_s" s.wall.(forward_class);
  puti "netsim.engine_steps" (Array.fold_left ( + ) 0 s.steps);
  putf "netsim.engine_only_s" s.wall.(engine_class);
  puti "netsim.queue_depth_max" s.queue_max;
  (* Each step is timed on its own, so the loop's wall time less the class
     totals is the stepping harness's own time between steps. *)
  let unattributed = s.loop_wall -. Array.fold_left ( +. ) 0. s.wall in
  putf "trace.unattributed_share" (unattributed /. Float.max 1e-9 s.loop_wall);
  check
    (unattributed >= 0. && unattributed <= unattributed_tolerance *. s.loop_wall)
    "trace.step_classes_sum_to_engine_wall";
  check (s.steps.(probe_class) = probe_rounds) "trace.probe_steps_eq_rounds"

(* The exchange, the messages and the engine run, then the output checks
   and, when traced, the per-layer numbers and the trace's consistency. *)
let run_protocol spec ~traced ~obs ~tracer ~m0 ~t0 state =
  let { world; engine; protocol; message_rng } = state in
  let duration = spec.duration in
  let node_count = World.node_count world in
  (* Validation: one exchange_advertisements call, timed as a whole. *)
  let validations =
    Array.fold_left (fun acc peers -> acc + Array.length peers) 0 world.World.peers
  in
  let vm0 = minor_words () in
  let v0 = now () in
  let reports = if spec.exchange then Protocol.exchange_advertisements protocol else [] in
  let validation_s = now () -. v0 in
  let validation_mwords = minor_mwords_since vm0 in
  let flagged = List.length reports in
  (* Messages, scored as concilium_sim scores them; each outcome is also
     kept per message for the digest and the delivery accounting. *)
  let stats =
    { sent = 0; delivered = 0; correct_node = 0; correct_network = 0; wrong = 0; undiagnosed = 0 }
  in
  let fired = Array.make spec.messages 0 in
  let outcomes = Array.make spec.messages None in
  for i = 0 to spec.messages - 1 do
    let at = 300. +. (duration -. 600.) *. float_of_int i /. float_of_int (max 1 spec.messages) in
    Engine.schedule_at engine ~time:at (fun _ ->
        let from = Prng.int message_rng node_count in
        let dest = Id.random message_rng in
        stats.sent <- stats.sent + 1;
        Protocol.send_message protocol ~from ~dest ~payload:"payload" ~on_outcome:(fun outcome ->
            fired.(i) <- fired.(i) + 1;
            outcomes.(i) <- Some outcome;
            if outcome.Protocol.delivered then stats.delivered <- stats.delivered + 1
            else score stats outcome))
  done;
  let e0 = now () in
  let steps =
    if traced then Some (traced_run engine tracer ~duration)
    else begin
      Engine.run_until engine duration;
      None
    end
  in
  let run_s = now () -. e0 in
  putf "total_s" (now () -. t0);
  putf "minor_mwords" (minor_mwords_since m0);
  (* A message fails when its on_outcome never fires or fires twice. *)
  let failed = Array.fold_left (fun acc n -> if n = 1 then acc else acc + 1) 0 fired in
  let dropped = stats.correct_node + stats.correct_network + stats.wrong + stats.undiagnosed in
  check (stats.sent = spec.messages) "messages.all_sent";
  check (failed = 0) "messages.outcome_once";
  check (stats.sent = stats.delivered + dropped) "messages.sent_eq_delivered_plus_dropped";
  let control_bytes = Array.init node_count (Protocol.control_bytes_sent protocol) in
  put "digest" (S (sim_digest outcomes fired reports control_bytes));
  let bandwidth = Protocol.mean_control_bytes_per_second protocol ~horizon:duration in
  let summary_text = summary_text spec world stats ~flagged ~validations ~bandwidth in
  put "summary" (S summary_text);
  puti "operations" spec.messages;
  puti "failed_operations" failed;
  putf "run_s" run_s;
  putf "sim_hours" (duration /. 3600.);
  puti "episodes" (stats.correct_node + stats.correct_network + stats.wrong);
  puti "correct" (stats.correct_node + stats.correct_network);
  if traced then begin
    let counter = Metrics.counter obs.Collector.metrics in
    let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
    let if_exchange v = if spec.exchange then v else 0. in
    putf "core.validation_s" (if_exchange validation_s);
    puti "core.validations" (if spec.exchange then validations else 0);
    putf "core.validation_us_each" (if_exchange (1e6 *. validation_s /. float_of_int validations));
    putf "core.validation_flagged_ratio" (if_exchange (ratio flagged validations));
    putf "core.validation_minor_mwords" (if_exchange validation_mwords);
    let probe_rounds = counter "probe.light_rounds" in
    Option.iter (fun s -> put_step_layers s tracer ~probe_rounds) steps;
    puti "tomography.observations" (Observation.count (Protocol.observations protocol));
    putf "protocol.retransmit_ratio" (ratio (counter "msg.retransmits") (counter "msg.sent"));
    putf "core.diagnosed_ratio" (ratio (counter "episode.diagnosed") (counter "episode.started"));
    putf "core.insufficient_ratio"
      (ratio (counter "episode.insufficient_evidence") (counter "episode.started"));
    check (Trace.validate obs.Collector.trace = Ok ()) "trace.validate";
    check (tracer.unknown = 0) "trace.records_parse";
    let counted_bytes =
      counter "bytes.probe_stripe" + counter "bytes.advert_diff"
      + counter "bytes.snapshot_exchange" + counter "bytes.heavy_probe"
    in
    check (counted_bytes = Array.fold_left ( + ) 0 control_bytes) "trace.bytes_reconcile"
  end

let run_sim spec ~seed ~traced ~setup_only =
  let obs =
    if traced then
      {
        Collector.trace = Trace.create ();
        metrics = Metrics.create ();
        prov = Concilium_provenance.Graph.noop;
      }
    else Collector.noop
  in
  let tracer =
    {
      names = Hashtbl.create 64;
      step_class = None;
      stack = [];
      self_s = Array.make (Array.length self_spans) 0.;
      unknown = 0;
    }
  in
  if traced then begin
    Trace.set_tap obs.Collector.trace (on_record tracer);
    replay_setup (spec.world_config ~seed)
  end;
  let m0 = minor_words () in
  let t0 = now () in
  let state = setup_sim spec ~seed ~obs in
  putf "setup_s" (now () -. t0);
  if not setup_only then run_protocol spec ~traced ~obs ~tracer ~m0 ~t0 state

(* ---------- fig5-pooled ---------- *)

let result_text (r : Blame_world.result) =
  let counts h = String.concat "," (Array.to_list (Array.map string_of_int (Histogram.counts h))) in
  Printf.sprintf "%s|%s|%h|%h|%d|%d" (counts r.Blame_world.faulty_pdf)
    (counts r.Blame_world.nonfaulty_pdf) r.Blame_world.p_good r.Blame_world.p_faulty
    r.Blame_world.faulty_samples r.Blame_world.nonfaulty_samples

let judged (r : Blame_world.result) =
  r.Blame_world.faulty_samples + r.Blame_world.nonfaulty_samples

(* Expected correct verdicts: faulty suspects found guilty plus innocent
   ones found innocent. *)
let correct_verdicts (r : Blame_world.result) =
  (float_of_int r.Blame_world.faulty_samples *. r.Blame_world.p_faulty)
  +. (float_of_int r.Blame_world.nonfaulty_samples *. (1. -. r.Blame_world.p_good))

let run_blame_worlds ?pool (honest, collusion) ~samples =
  let run world = Blame_world.run ?pool world ~samples ~bins:25 in
  (run honest, run collusion)

(* experiments fig5: the honest and the 20% collusion Blame_world over one
   small world, both run through one pool. *)
let run_fig5 ~seed ~tiny ~traced ~setup_only ~check_sequential =
  let samples = if tiny then 300 else 20_000 in
  let world_config = if tiny then World.tiny_config ~seed else World.small_config ~seed in
  if traced then replay_setup world_config;
  let m0 = minor_words () in
  let t0 = now () in
  let pool = Pool.create ~domains:(Pool.default_domains ()) () in
  let world = World.build world_config in
  let c0 = now () in
  let worlds =
    ( Blame_world.create ~world (Blame_world.paper_config ~colluding_fraction:0. ~seed),
      Blame_world.create ~world
        (Blame_world.paper_config ~colluding_fraction:0.2 ~seed:(Int64.add seed 5L)) )
  in
  let c1 = now () in
  putf "setup_s" (c1 -. t0);
  if setup_only then Pool.shutdown pool
  else begin
    Pool.reset_stats pool;
    let honest, collusion = run_blame_worlds ~pool worlds ~samples in
    let run_s = now () -. c1 in
    putf "total_s" (now () -. t0);
    let stats = Pool.stats pool in
    Pool.shutdown pool;
    putf "minor_mwords" (minor_mwords_since m0);
    let text = result_text honest ^ "\n" ^ result_text collusion in
    put "digest" (S (Digest.to_hex (Digest.string text)));
    if check_sequential then begin
      let honest, collusion = run_blame_worlds worlds ~samples in
      check (text = result_text honest ^ "\n" ^ result_text collusion) "fig5.pooled_eq_sequential"
    end;
    check (judged honest = samples && judged collusion = samples) "fig5.samples_landed";
    let rates r = [ r.Blame_world.p_good; r.Blame_world.p_faulty ] in
    check
      (List.for_all (fun p -> p >= 0. && p <= 1.) (rates honest @ rates collusion))
      "fig5.rates_in_unit_interval";
    puti "operations" (2 * samples);
    puti "failed_operations" 0;
    putf "run_s" run_s;
    putf "sim_hours" 0.;
    puti "episodes" (judged honest + judged collusion);
    putf "correct" (correct_verdicts honest +. correct_verdicts collusion);
    if traced then begin
      let sum f = List.fold_left (fun acc s -> acc +. f s) 0. stats in
      let busy = sum (fun s -> s.Pool.busy_s) and idle = sum (fun s -> s.Pool.idle_s) in
      putf "pool.busy_s" busy;
      putf "pool.idle_s" idle;
      putf "pool.steal_wait_s" (sum (fun s -> s.Pool.steal_wait_s));
      puti "pool.steals" (List.fold_left (fun acc s -> acc + s.Pool.steals) 0 stats);
      putf "pool.utilization" (if busy +. idle > 0. then busy /. (busy +. idle) else 0.);
      putf "experiments.blame_world_create_s" (c1 -. c0);
      putf "experiments.blame_world_run_s" run_s
    end
  end

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let flag f = List.mem f args in
  match List.filter (fun a -> String.length a < 2 || String.sub a 0 2 <> "--") args with
  | [ workload; seed ] -> (
      let seed = Int64.of_string seed in
      let tiny = flag "--tiny" and traced = flag "--traced" in
      let setup_only = flag "--setup-only" in
      put "workload" (S workload);
      put "seed" (S (Int64.to_string seed));
      (match workload with
      | "fig5-pooled" ->
          run_fig5 ~seed ~tiny ~traced ~setup_only ~check_sequential:(flag "--check-sequential")
      | _ -> (
          match sim_of_workload ~tiny workload with
          | Some spec -> run_sim spec ~seed ~traced ~setup_only
          | None ->
              prerr_endline ("bench: unknown workload " ^ workload);
              exit 2));
      putf "peak_rss_mb" (peak_rss_mb ());
      emit ())
  | _ ->
      prerr_endline
        "usage: bench.exe WORKLOAD SEED [--traced] [--tiny] [--check-sequential] [--setup-only]";
      exit 2
