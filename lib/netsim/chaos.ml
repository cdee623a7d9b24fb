module Prng = Concilium_util.Prng
module Trace = Concilium_obs.Trace

type fault =
  | Link_flap of { link : int; start : float; duration : float }
  | Burst_loss of { links : int array; start : float; duration : float }
  | Partition of { cut : int array; start : float; duration : float }
  | Node_crash of { node : int; start : float; duration : float }
  | Replica_loss of { node : int; time : float }
  | Control_delay of { start : float; duration : float; extra : float }
  | Control_duplication of { start : float; duration : float; copies : int }

type plan = fault list

type config = {
  link_flaps_per_hour : float;
  flap_mean_duration : float;
  bursts_per_hour : float;
  burst_width : int;
  burst_mean_duration : float;
  partitions_per_hour : float;
  partition_mean_duration : float;
  crashes_per_hour : float;
  crash_mean_duration : float;
  replica_losses_per_hour : float;
  delays_per_hour : float;
  delay_mean_duration : float;
  delay_extra : float;
  duplications_per_hour : float;
  duplication_mean_duration : float;
  duplication_copies : int;
}

let quiet =
  {
    link_flaps_per_hour = 0.;
    flap_mean_duration = 0.;
    bursts_per_hour = 0.;
    burst_width = 0;
    burst_mean_duration = 0.;
    partitions_per_hour = 0.;
    partition_mean_duration = 0.;
    crashes_per_hour = 0.;
    crash_mean_duration = 0.;
    replica_losses_per_hour = 0.;
    delays_per_hour = 0.;
    delay_mean_duration = 0.;
    delay_extra = 0.;
    duplications_per_hour = 0.;
    duplication_mean_duration = 0.;
    duplication_copies = 1;
  }

let default_config =
  {
    link_flaps_per_hour = 6.;
    flap_mean_duration = 120.;
    bursts_per_hour = 2.;
    burst_width = 4;
    burst_mean_duration = 180.;
    partitions_per_hour = 1.;
    partition_mean_duration = 300.;
    crashes_per_hour = 3.;
    crash_mean_duration = 240.;
    replica_losses_per_hour = 1.;
    delays_per_hour = 2.;
    delay_mean_duration = 300.;
    delay_extra = 5.;
    duplications_per_hour = 2.;
    duplication_mean_duration = 300.;
    duplication_copies = 2;
  }

(* The paper keeps 5% of route-relevant links bad with 15-minute mean
   downtimes (Section 4.2). With per-hour flap arrivals f and mean duration
   d the expected concurrently-bad count is f*d/3600; the soak scenarios
   pick the flap rate per link pool at compile size, so here we encode the
   per-run intensity used by bin/chaos.exe's "paper" scenarios. *)
let paper_rates =
  {
    link_flaps_per_hour = 12.;
    flap_mean_duration = 900.;
    bursts_per_hour = 1.;
    burst_width = 3;
    burst_mean_duration = 900.;
    partitions_per_hour = 0.5;
    partition_mean_duration = 600.;
    crashes_per_hour = 2.;
    crash_mean_duration = 600.;
    replica_losses_per_hour = 0.5;
    delays_per_hour = 1.;
    delay_mean_duration = 600.;
    delay_extra = 10.;
    duplications_per_hour = 1.;
    duplication_mean_duration = 600.;
    duplication_copies = 2;
  }

let start_of = function
  | Link_flap { start; _ }
  | Burst_loss { start; _ }
  | Partition { start; _ }
  | Node_crash { start; _ }
  | Control_delay { start; _ }
  | Control_duplication { start; _ } ->
      start
  | Replica_loss { time; _ } -> time

(* Poisson arrivals over [0, horizon) at [per_hour], each arrival mapped
   through [make]. Arrival times come out increasing, so a stable sort on
   start keeps generation order within ties. *)
let arrivals ~rng ~per_hour ~horizon ~make acc =
  if per_hour <= 0. then acc
  else begin
    let rate = per_hour /. 3600. in
    let out = ref acc in
    let clock = ref (Prng.exponential rng ~rate) in
    while !clock < horizon do
      out := make !clock :: !out;
      clock := !clock +. Prng.exponential rng ~rate
    done;
    !out
  end

let duration_draw rng ~mean = if mean <= 0. then 0. else Prng.exponential rng ~rate:(1. /. mean)

let sample ~rng ~config ~links ~nodes ~cuts ~horizon =
  if horizon <= 0. then invalid_arg "Chaos.sample: non-positive horizon";
  let faults = ref [] in
  if Array.length links > 0 then begin
    faults :=
      arrivals ~rng ~per_hour:config.link_flaps_per_hour ~horizon
        ~make:(fun start ->
          Link_flap
            {
              link = Prng.choose rng links;
              start;
              duration = duration_draw rng ~mean:config.flap_mean_duration;
            })
        !faults;
    if config.burst_width > 0 then
      faults :=
        arrivals ~rng ~per_hour:config.bursts_per_hour ~horizon
          ~make:(fun start ->
            let width = min config.burst_width (Array.length links) in
            let picks = Prng.sample_without_replacement rng width (Array.length links) in
            Burst_loss
              {
                links = Array.map (fun i -> links.(i)) picks;
                start;
                duration = duration_draw rng ~mean:config.burst_mean_duration;
              })
          !faults
  end;
  if Array.length cuts > 0 then
    faults :=
      arrivals ~rng ~per_hour:config.partitions_per_hour ~horizon
        ~make:(fun start ->
          Partition
            {
              cut = Prng.choose rng cuts;
              start;
              duration = duration_draw rng ~mean:config.partition_mean_duration;
            })
        !faults;
  if nodes > 0 then begin
    faults :=
      arrivals ~rng ~per_hour:config.crashes_per_hour ~horizon
        ~make:(fun start ->
          Node_crash
            {
              node = Prng.int rng nodes;
              start;
              duration = duration_draw rng ~mean:config.crash_mean_duration;
            })
        !faults;
    faults :=
      arrivals ~rng ~per_hour:config.replica_losses_per_hour ~horizon
        ~make:(fun time -> Replica_loss { node = Prng.int rng nodes; time })
        !faults
  end;
  faults :=
    arrivals ~rng ~per_hour:config.delays_per_hour ~horizon
      ~make:(fun start ->
        Control_delay
          {
            start;
            duration = duration_draw rng ~mean:config.delay_mean_duration;
            extra = config.delay_extra;
          })
      !faults;
  faults :=
    arrivals ~rng ~per_hour:config.duplications_per_hour ~horizon
      ~make:(fun start ->
        Control_duplication
          {
            start;
            duration = duration_draw rng ~mean:config.duplication_mean_duration;
            copies = max 1 config.duplication_copies;
          })
      !faults;
  List.stable_sort (fun a b -> Float.compare (start_of a) (start_of b)) (List.rev !faults)

(* ---------- Adversary clauses ---------- *)

(* Adversary clauses are pure data: chaos samples *who* is compromised,
   *when*, and with what intensity, under the same seeded Poisson-arrival
   discipline as faults. The *semantics* — what a colluding forwarder or a
   lying reporter actually does with protocol messages — live above the
   core in [Concilium_adversary], which compiles these clauses into
   protocol tap functions. Keeping the clauses behaviour-free preserves
   the layering (netsim sits below core). *)

type adversary =
  | Collusion of {
      members : int array;
      drop_probability : float;
      corroboration : float;
      start : float;
      duration : float;
    }
  | Lying_reporters of {
      reporters : int array;
      victim : int;
      corroboration : float;
      start : float;
      duration : float;
    }
  | Eclipse of { attackers : int array; victim : int; start : float; duration : float }
  | Biased_sampling of {
      samplers : int array;
      favored : int;
      start : float;
      duration : float;
    }

type adversary_plan = adversary list

type adversary_config = {
  collusions_per_hour : float;
  collusion_size : int;
  collusion_drop_probability : float;
  collusion_corroboration : float;
  collusion_mean_duration : float;
  lying_per_hour : float;
  lying_size : int;
  lying_corroboration : float;
  lying_mean_duration : float;
  eclipses_per_hour : float;
  eclipse_size : int;
  eclipse_mean_duration : float;
  biased_per_hour : float;
  biased_size : int;
  biased_mean_duration : float;
}

(* analysis: allow test-only — fixture: the zero adversary configuration tests sample from *)
let no_adversaries =
  {
    collusions_per_hour = 0.;
    collusion_size = 0;
    collusion_drop_probability = 0.;
    collusion_corroboration = 0.;
    collusion_mean_duration = 0.;
    lying_per_hour = 0.;
    lying_size = 0;
    lying_corroboration = 0.;
    lying_mean_duration = 0.;
    eclipses_per_hour = 0.;
    eclipse_size = 0;
    eclipse_mean_duration = 0.;
    biased_per_hour = 0.;
    biased_size = 0;
    biased_mean_duration = 0.;
  }

let default_adversary_config =
  {
    collusions_per_hour = 1.;
    collusion_size = 3;
    collusion_drop_probability = 0.8;
    collusion_corroboration = 1.;
    collusion_mean_duration = 900.;
    lying_per_hour = 1.;
    lying_size = 3;
    lying_corroboration = 1.;
    lying_mean_duration = 900.;
    eclipses_per_hour = 0.5;
    eclipse_size = 4;
    eclipse_mean_duration = 900.;
    biased_per_hour = 0.5;
    biased_size = 3;
    biased_mean_duration = 900.;
  }

let adversary_start_of = function
  | Collusion { start; _ }
  | Lying_reporters { start; _ }
  | Eclipse { start; _ }
  | Biased_sampling { start; _ } ->
      start

(* [k] distinct overlay nodes, ascending (sample_without_replacement
   returns sorted indices, which here are the node ids themselves). *)
let pick_nodes rng ~nodes k =
  let k = min k nodes in
  Prng.sample_without_replacement rng k nodes

(* [k] distinct nodes excluding [victim]: sample from an [nodes-1]-sized
   index space and shift indices at or above the victim up by one. *)
let pick_nodes_excluding rng ~nodes ~victim k =
  let k = min k (nodes - 1) in
  let picks = Prng.sample_without_replacement rng k (nodes - 1) in
  Array.map (fun i -> if i >= victim then i + 1 else i) picks

let sample_adversaries ~rng ~config ~nodes ?peers_of ~horizon () =
  if horizon <= 0. then invalid_arg "Chaos.sample_adversaries: non-positive horizon";
  if nodes < 2 then []
  else begin
    let advs = ref [] in
    if config.collusion_size > 0 then
      advs :=
        arrivals ~rng ~per_hour:config.collusions_per_hour ~horizon
          ~make:(fun start ->
            Collusion
              {
                members = pick_nodes rng ~nodes config.collusion_size;
                drop_probability = config.collusion_drop_probability;
                corroboration = config.collusion_corroboration;
                start;
                duration = duration_draw rng ~mean:config.collusion_mean_duration;
              })
          !advs;
    if config.lying_size > 0 then
      advs :=
        arrivals ~rng ~per_hour:config.lying_per_hour ~horizon
          ~make:(fun start ->
            let victim = Prng.int rng nodes in
            Lying_reporters
              {
                reporters = pick_nodes_excluding rng ~nodes ~victim config.lying_size;
                victim;
                corroboration = config.lying_corroboration;
                start;
                duration = duration_draw rng ~mean:config.lying_mean_duration;
              })
          !advs;
    if config.eclipse_size > 0 then
      advs :=
        arrivals ~rng ~per_hour:config.eclipses_per_hour ~horizon
          ~make:(fun start ->
            let victim = Prng.int rng nodes in
            (* An eclipse wants attackers already adjacent to the victim's
               routing state; fall back to arbitrary nodes when the caller
               gives no peer view. *)
            let attackers =
              match peers_of with
              | Some peers when Array.length (peers victim) > 0 ->
                  let peers = peers victim in
                  let k = min config.eclipse_size (Array.length peers) in
                  let picks = Prng.sample_without_replacement rng k (Array.length peers) in
                  Array.map (fun i -> peers.(i)) picks
              | _ -> pick_nodes_excluding rng ~nodes ~victim config.eclipse_size
            in
            Eclipse
              {
                attackers;
                victim;
                start;
                duration = duration_draw rng ~mean:config.eclipse_mean_duration;
              })
          !advs;
    if config.biased_size > 0 then
      advs :=
        arrivals ~rng ~per_hour:config.biased_per_hour ~horizon
          ~make:(fun start ->
            let favored = Prng.int rng nodes in
            Biased_sampling
              {
                samplers = pick_nodes_excluding rng ~nodes ~victim:favored config.biased_size;
                favored;
                start;
                duration = duration_draw rng ~mean:config.biased_mean_duration;
              })
          !advs;
    List.stable_sort
      (fun a b -> Float.compare (adversary_start_of a) (adversary_start_of b))
      (List.rev !advs)
  end

let adversary_counts plan =
  let collusion = ref 0 and lying = ref 0 and eclipse = ref 0 and biased = ref 0 in
  List.iter
    (fun adversary ->
      match adversary with
      | Collusion _ -> incr collusion
      | Lying_reporters _ -> incr lying
      | Eclipse _ -> incr eclipse
      | Biased_sampling _ -> incr biased)
    plan;
  [
    ("collusion", !collusion);
    ("lying_reporters", !lying);
    ("eclipse", !eclipse);
    ("biased_sampling", !biased);
  ]

let cut_of_paths ~paths =
  let crossing = Hashtbl.create 64 and same_side = Hashtbl.create 64 in
  List.iter
    (fun (side_a, side_b, links) ->
      let table = if side_a = side_b then same_side else crossing in
      Array.iter (fun link -> Hashtbl.replace table link ()) links)
    paths;
  let cut =
    Hashtbl.fold
      (fun link () acc -> if Hashtbl.mem same_side link then acc else link :: acc)
      crossing []
    |> Array.of_list
  in
  (* Fold order is hash-seed dependent; the sort restores determinism. *)
  Array.sort Int.compare cut;
  cut

(* ---------- Compilation ---------- *)

type t = {
  (* Active chaos faults claiming each link bad. A link flips bad on the
     0 -> 1 transition and is repaired on 1 -> 0 — unless it was already
     bad before chaos touched it (another fault source owns it). *)
  claims : (int, int * bool) Hashtbl.t;  (* link -> (count, bad_before_chaos) *)
  down : (float * float) array array;  (* per node: sorted crash intervals *)
  delays : (float * float * float) array;  (* start, finish, extra *)
  dups : (float * float * int) array;
}

let claim t link_state link =
  let count, prior =
    match Hashtbl.find_opt t.claims link with
    | Some (c, prior) -> (c, prior)
    | None -> (0, Link_state.is_bad link_state link)
  in
  if count = 0 then Link_state.set_bad link_state link;
  Hashtbl.replace t.claims link (count + 1, prior)

let release t link_state link =
  match Hashtbl.find_opt t.claims link with
  | None -> ()
  | Some (count, prior) ->
      if count <= 1 then begin
        Hashtbl.remove t.claims link;
        if not prior then Link_state.set_good link_state link
      end
      else Hashtbl.replace t.claims link (count - 1, prior)

let compile ?(obs = Trace.noop) ?(on_replica_loss = fun ~node:_ ~time:_ -> ()) ~engine
    ~link_state plan =
  let crash_intervals = Hashtbl.create 16 in
  let delays = ref [] and dups = ref [] in
  let max_node = ref (-1) in
  let t =
    { claims = Hashtbl.create 64; down = [||]; delays = [||]; dups = [||] }
  in
  let at time action =
    (* Faults scheduled before the engine clock (e.g. warm-start plans
       compiled mid-run) fire immediately rather than raising. *)
    Engine.schedule_at engine ~time:(Float.max time (Engine.now engine)) action
  in
  (* Link faults trace from inside the already-scheduled engine actions, so
     tracing adds no events and cannot perturb event ordering; window faults
     (crash, delay, duplication) compile to queryable intervals rather than
     events, so they trace here at compile time with their plan times. *)
  let claim_interval ~family links ~start ~duration =
    at start (fun engine ->
        Trace.instant obs ~time:(Engine.now engine) ~cat:"chaos"
          ~args:[ ("links", Trace.Int (Array.length links)) ]
          (family ^ ".start");
        Array.iter (fun link -> claim t link_state link) links);
    at (start +. duration) (fun engine ->
        Trace.instant obs ~time:(Engine.now engine) ~cat:"chaos"
          ~args:[ ("links", Trace.Int (Array.length links)) ]
          (family ^ ".end");
        Array.iter (fun link -> release t link_state link) links)
  in
  let window_fault ~family ~start ~duration args =
    Trace.instant obs ~time:start ~cat:"chaos"
      ~args:(("duration", Trace.Float duration) :: args)
      family
  in
  List.iter
    (fun fault ->
      match fault with
      | Link_flap { link; start; duration } ->
          claim_interval ~family:"chaos.link_flap" [| link |] ~start ~duration
      | Burst_loss { links; start; duration } ->
          claim_interval ~family:"chaos.burst_loss" links ~start ~duration
      | Partition { cut; start; duration } ->
          claim_interval ~family:"chaos.partition" cut ~start ~duration
      | Node_crash { node; start; duration } ->
          window_fault ~family:"chaos.node_crash" ~start ~duration
            [ ("node", Trace.Int node) ];
          max_node := max !max_node node;
          let existing =
            match Hashtbl.find_opt crash_intervals node with Some l -> l | None -> []
          in
          Hashtbl.replace crash_intervals node ((start, start +. duration) :: existing)
      | Replica_loss { node; time } ->
          at time (fun engine ->
              Trace.instant obs ~time:(Engine.now engine) ~cat:"chaos"
                ~args:[ ("node", Trace.Int node) ]
                "chaos.replica_loss";
              on_replica_loss ~node ~time:(Engine.now engine))
      | Control_delay { start; duration; extra } ->
          window_fault ~family:"chaos.control_delay" ~start ~duration
            [ ("extra", Trace.Float extra) ];
          delays := (start, start +. duration, extra) :: !delays
      | Control_duplication { start; duration; copies } ->
          window_fault ~family:"chaos.control_duplication" ~start ~duration
            [ ("copies", Trace.Int copies) ];
          dups := (start, start +. duration, copies) :: !dups)
    plan;
  let down =
    Array.init (!max_node + 1) (fun node ->
        let intervals =
          match Hashtbl.find_opt crash_intervals node with Some l -> l | None -> []
        in
        let arr = Array.of_list intervals in
        Array.sort (fun (a, _) (b, _) -> Float.compare a b) arr;
        arr)
  in
  { t with down; delays = Array.of_list (List.rev !delays); dups = Array.of_list (List.rev !dups) }

let node_online t ~time node =
  node >= Array.length t.down
  || not
       (Array.exists
          (fun (start, finish) -> time >= start && time < finish)
          t.down.(node))

let control_latency t ~time =
  Array.fold_left
    (fun acc (start, finish, extra) ->
      if time >= start && time < finish then acc +. extra else acc)
    0. t.delays

let put_copies t ~time =
  Array.fold_left
    (fun acc (start, finish, copies) ->
      if time >= start && time < finish then max acc copies else acc)
    1 t.dups

let fault_counts plan =
  let flap = ref 0
  and burst = ref 0
  and partition = ref 0
  and crash = ref 0
  and replica = ref 0
  and delay = ref 0
  and dup = ref 0 in
  List.iter
    (fun fault ->
      match fault with
      | Link_flap _ -> incr flap
      | Burst_loss _ -> incr burst
      | Partition _ -> incr partition
      | Node_crash _ -> incr crash
      | Replica_loss _ -> incr replica
      | Control_delay _ -> incr delay
      | Control_duplication _ -> incr dup)
    plan;
  [
    ("link_flap", !flap);
    ("burst_loss", !burst);
    ("partition", !partition);
    ("node_crash", !crash);
    ("replica_loss", !replica);
    ("control_delay", !delay);
    ("control_duplication", !dup);
  ]
