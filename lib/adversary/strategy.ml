module Chaos = Concilium_netsim.Chaos
module Protocol = Concilium_core.Protocol
module World = Concilium_core.World
module Prng = Concilium_util.Prng
module Graph = Concilium_topology.Graph
module Routes = Concilium_topology.Routes
module Id = Concilium_overlay.Id

(* Compiled campaign forms: membership as node-indexed masks, lie targets
   as link-indexed masks plus a small capped list for forged-report
   stuffing. Everything is precomputed at compile time; taps only test
   masks and draw from the strategy PRNG. *)

type collusion = {
  c_members : bool array;
  c_drop_probability : float;
  c_corroboration : float;
  c_start : float;
  c_stop : float;
  c_shield : bool array;
      (* coalition-wide lie targets: members' egress links that at least
         one NON-member's probe tree also covers. Lying only where honest
         echo exists keeps the corroboration campaign plausible — a link
         only the coalition can see is a self-evident fabrication. *)
  c_own : (int * bool array) list;
      (* member -> its own egress mask. Self-exculpation (misreporting
         your own probes about your own links) is always plausible, even
         where no honest voucher exists — exactly the Section 3.4 attack
         the exclude_suspect_probes defense answers. *)
  c_forge : (int * int array) list;
      (* member -> the capped link list it stuffs forged reports onto:
         (shield ∩ its own forest) ∪ its own egress. A probe vote for a
         link outside the prober's announced forest would not verify, so
         forging is bounded by what the member could have probed. *)
}

type lying = {
  l_reporters : bool array;
  l_corroboration : float;
  l_start : float;
  l_stop : float;
  l_frame : bool array;  (* links on the victim's egress paths *)
  l_forge : (int * int array) list;  (* reporter -> frame ∩ its forest, capped *)
}

type eclipse = {
  e_attackers : int array;  (* insertion preference order *)
  e_attacker_mask : bool array;
  e_victim : int;
  e_start : float;
  e_stop : float;
}

type biased = { b_samplers : bool array; b_favored : int; b_start : float; b_stop : float }

type t = {
  world : World.t;
  rng : Prng.t;
  forge_copies : int;
  collusions : collusion list;
  lyings : lying list;
  eclipses : eclipse list;
  biaseds : biased list;
  compromised : int array;
  compromised_mask : bool array;
  victims : int array;
  biased_samplers : int array;
}

let forge_cap = 96

(* Union of the egress-path links of every node in [nodes]: the links a
   judge inspects when one of them is the suspect. *)
let egress_links world nodes ~link_count =
  let mask = Array.make link_count false in
  Array.iter
    (fun v ->
      Array.iter
        (fun path ->
          match path with
          | Some path -> Array.iter (fun link -> mask.(link) <- true) path.Routes.links
          | None -> ())
        world.World.peer_paths.(v))
    nodes;
  mask

let capped_list_of_mask mask =
  let listed = ref [] and count = ref 0 in
  let i = ref 0 in
  while !count < forge_cap && !i < Array.length mask do
    if mask.(!i) then begin
      listed := !i :: !listed;
      incr count
    end;
    incr i
  done;
  Array.of_list (List.rev !listed)

let forest_mask world v ~link_count =
  let mask = Array.make link_count false in
  Array.iter (fun link -> if link < link_count then mask.(link) <- true) (World.forest_links world v);
  mask

let sorted_distinct nodes =
  let arr = Array.of_list nodes in
  Array.sort Int.compare arr;
  let out = ref [] in
  Array.iter
    (fun v -> match !out with x :: _ when x = v -> () | _ -> out := v :: !out)
    arr;
  Array.of_list (List.rev !out)

let mask_of node_count nodes =
  let mask = Array.make node_count false in
  Array.iter (fun v -> if v >= 0 && v < node_count then mask.(v) <- true) nodes;
  mask

let compile ~world ~rng ?(forge_copies = 3) plan =
  let node_count = World.node_count world in
  let link_count = Graph.link_count world.World.generated.World.Generate.graph in
  let collusions = ref []
  and lyings = ref []
  and eclipses = ref []
  and biaseds = ref [] in
  let all = ref [] and victim_list = ref [] and sampler_list = ref [] in
  List.iter
    (fun adversary ->
      match adversary with
      | Chaos.Collusion { members; drop_probability; corroboration; start; duration } ->
          let member_mask = mask_of node_count members in
          let egress_all = egress_links world members ~link_count in
          let shield =
            Array.mapi
              (fun link on ->
                on
                && List.exists
                     (fun v -> not (v >= 0 && v < node_count && member_mask.(v)))
                     (World.vouchers world ~link))
              egress_all
          in
          let own =
            Array.to_list members
            |> List.map (fun m -> (m, egress_links world [| m |] ~link_count))
          in
          let forge =
            List.map
              (fun (m, own_mask) ->
                let forest = forest_mask world m ~link_count in
                let covered =
                  Array.mapi (fun link c -> c && forest.(link)) shield
                in
                (* Coalition shield links first — a helper's stuffing is
                   only worth anything on links some judge inspects — then
                   the member's own egress (self-exculpation, including
                   links nobody else vouches for). *)
                let shield_list = capped_list_of_mask covered in
                let room = max 0 (forge_cap - Array.length shield_list) in
                let own_only =
                  Array.mapi (fun link o -> o && not covered.(link)) own_mask
                in
                let own_list = capped_list_of_mask own_only in
                let own_list = Array.sub own_list 0 (min room (Array.length own_list)) in
                (m, Array.append shield_list own_list))
              own
          in
          all := Array.to_list members @ !all;
          collusions :=
            {
              c_members = member_mask;
              c_drop_probability = drop_probability;
              c_corroboration = corroboration;
              c_start = start;
              c_stop = start +. duration;
              c_shield = shield;
              c_own = own;
              c_forge = forge;
            }
            :: !collusions
      | Chaos.Lying_reporters { reporters; victim; corroboration; start; duration } ->
          let frame = egress_links world [| victim |] ~link_count in
          let forge =
            Array.to_list reporters
            |> List.map (fun r ->
                   let forest = forest_mask world r ~link_count in
                   let mine = Array.mapi (fun link on -> on && forest.(link)) frame in
                   (r, capped_list_of_mask mine))
          in
          all := Array.to_list reporters @ !all;
          victim_list := victim :: !victim_list;
          lyings :=
            {
              l_reporters = mask_of node_count reporters;
              l_corroboration = corroboration;
              l_start = start;
              l_stop = start +. duration;
              l_frame = frame;
              l_forge = forge;
            }
            :: !lyings
      | Chaos.Eclipse { attackers; victim; start; duration } ->
          all := Array.to_list attackers @ !all;
          victim_list := victim :: !victim_list;
          eclipses :=
            {
              e_attackers = attackers;
              e_attacker_mask = mask_of node_count attackers;
              e_victim = victim;
              e_start = start;
              e_stop = start +. duration;
            }
            :: !eclipses
      | Chaos.Biased_sampling { samplers; favored; start; duration } ->
          all := Array.to_list samplers @ !all;
          sampler_list := Array.to_list samplers @ !sampler_list;
          biaseds :=
            {
              b_samplers = mask_of node_count samplers;
              b_favored = favored;
              b_start = start;
              b_stop = start +. duration;
            }
            :: !biaseds)
    plan;
  let compromised = sorted_distinct !all in
  {
    world;
    rng;
    forge_copies = max 1 forge_copies;
    collusions = List.rev !collusions;
    lyings = List.rev !lyings;
    eclipses = List.rev !eclipses;
    biaseds = List.rev !biaseds;
    compromised;
    compromised_mask = mask_of node_count (Array.to_list compromised |> Array.of_list);
    victims = sorted_distinct !victim_list;
    biased_samplers = sorted_distinct !sampler_list;
  }

let compromised t = t.compromised
let victims t = t.victims
let biased_samplers t = t.biased_samplers

(* analysis: allow test-only — observation point: tests check coalition membership and that
   victims stay honest *)
let is_compromised t v =
  v >= 0 && v < Array.length t.compromised_mask && t.compromised_mask.(v)

let in_window ~start ~stop time = time >= start && time < stop

(* ---------- Tap implementations ---------- *)

(* Wedge the first viable attacker immediately upstream of the victim.
   Viability: the previous hop can reach the attacker over IP and the
   attacker can reach the victim, so the rewritten route stays routable;
   attackers already on the route are skipped. *)
let insert_attacker world e route =
  let rec go prefix remaining =
    match remaining with
    | prev :: v :: rest when v = e.e_victim && prev <> e.e_victim ->
        let viable a =
          a <> prev && a <> e.e_victim
          && (not (List.mem a route))
          && Option.is_some (World.ip_path world ~from_node:prev ~to_node:a)
          && Option.is_some (World.ip_path world ~from_node:a ~to_node:e.e_victim)
        in
        let chosen =
          Array.fold_left
            (fun acc a -> match acc with Some _ -> acc | None -> if viable a then Some a else None)
            None e.e_attackers
        in
        (match chosen with
        | Some a -> Some (List.rev_append prefix (prev :: a :: v :: rest))
        | None -> None)
    | hop :: rest -> go (hop :: prefix) rest
    | [] -> None
  in
  go [] route

let tap_route t ~time ~from:_ ~dest:_ route =
  List.fold_left
    (fun acc e ->
      match acc with
      | Some _ -> acc
      | None ->
          if in_window ~start:e.e_start ~stop:e.e_stop time then insert_attacker t.world e route
          else None)
    None t.eclipses

let tap_forward t ~time ~node ~sender:_ ~next =
  if
    List.exists
      (fun e ->
        in_window ~start:e.e_start ~stop:e.e_stop time
        && e.e_attacker_mask.(node) && next = e.e_victim)
      t.eclipses
  then Some Protocol.Tap_drop
  else begin
    let rec go = function
      | [] -> None
      | c :: rest ->
          if in_window ~start:c.c_start ~stop:c.c_stop time && c.c_members.(node) then
            if Prng.bernoulli t.rng c.c_drop_probability then Some Protocol.Tap_drop
            else None (* this round the colluder behaves, to stay plausible *)
          else go rest
    in
    go t.collusions
  end

let tap_observation t ~time ~prober ~link ~up =
  (* Coalition shielding first (claim "down" near a colluder), then victim
     framing (claim "up" near the victim). A prober serving both campaigns
     resolves shield-first — pleading network innocence protects the
     coalition even at the cost of one framing vote. *)
  let shields =
    List.exists
      (fun c ->
        in_window ~start:c.c_start ~stop:c.c_stop time
        && c.c_members.(prober)
        && link < Array.length c.c_shield
        && (c.c_shield.(link)
           ||
           match List.find_opt (fun (m, _) -> m = prober) c.c_own with
           | Some (_, own_mask) -> own_mask.(link)
           | None -> false)
        && Prng.bernoulli t.rng c.c_corroboration)
      t.collusions
  in
  if shields then false
  else begin
    let frames =
      List.exists
        (fun l ->
          in_window ~start:l.l_start ~stop:l.l_stop time
          && l.l_reporters.(prober)
          && link < Array.length l.l_frame
          && l.l_frame.(link)
          && Prng.bernoulli t.rng l.l_corroboration)
        t.lyings
    in
    if frames then true else up
  end

let tap_advertised_peers t ~time ~node peers =
  (* Over-represent the favored node: every other advertised slot is
     replaced, which both inflates the favored node's visibility and
     suppresses knowledge of honest peers. *)
  let rewrite =
    List.fold_left
      (fun acc b ->
        match acc with
        | Some _ -> acc
        | None ->
            if in_window ~start:b.b_start ~stop:b.b_stop time && b.b_samplers.(node) then
              Some b.b_favored
            else None)
      None t.biaseds
  in
  match rewrite with
  | None -> None
  | Some favored ->
      Some
        (Array.mapi
           (fun i peer -> if i mod 2 = 0 && peer <> favored && favored <> node then favored else peer)
           peers)

let tap_forged_reports t ~time ~prober =
  let out = ref [] in
  List.iter
    (fun c ->
      if in_window ~start:c.c_start ~stop:c.c_stop time && c.c_members.(prober) then
        match List.find_opt (fun (m, _) -> m = prober) c.c_forge with
        | Some (_, links) ->
            Array.iter
              (fun link ->
                for _ = 1 to t.forge_copies do
                  out := (link, false) :: !out
                done)
              links
        | None -> ())
    t.collusions;
  List.iter
    (fun l ->
      if in_window ~start:l.l_start ~stop:l.l_stop time && l.l_reporters.(prober) then
        match List.find_opt (fun (r, _) -> r = prober) l.l_forge with
        | Some (_, links) ->
            Array.iter
              (fun link ->
                for _ = 1 to t.forge_copies do
                  out := (link, true) :: !out
                done)
              links
        | None -> ())
    t.lyings;
  List.rev !out

let taps t =
  {
    Protocol.tap_route = (fun ~time ~from ~dest route -> tap_route t ~time ~from ~dest route);
    tap_forward = (fun ~time ~node ~sender ~next -> tap_forward t ~time ~node ~sender ~next);
    tap_observation =
      (fun ~time ~prober ~link ~up -> tap_observation t ~time ~prober ~link ~up);
    tap_advertised_peers =
      (fun ~time ~node peers -> tap_advertised_peers t ~time ~node peers);
    tap_forged_reports = (fun ~time ~prober -> tap_forged_reports t ~time ~prober);
  }

(* ---------- Targeted plan builders ---------- *)

let targeted_route ~world ~rng ~min_hops =
  let node_count = World.node_count world in
  let rec trial k =
    if k = 0 then None
    else begin
      let from = Prng.int rng node_count in
      let dest = Id.random rng in
      let route = World.overlay_route world ~from ~dest in
      if List.length route >= min_hops then Some (from, dest, route) else trial (k - 1)
    end
  in
  trial 64

(* The judge evaluates the route's first forwarder over the IP path to the
   second forwarder, one confidence per link, voteless links skipped. A
   "self-exculpation gap" is a link on that path where no prober visible
   to the judge (itself or its peers) vouches except the forwarder itself:
   with exclude_suspect_probes off, the forwarder's lone "down" vote there
   is uncontradicted and acquits it — the Section 3.4 attack in its purest
   form. Routes with a gap make the suspect-exclusion canary deterministic. *)
let self_exculpation_gap ~world ~route =
  match route with
  | sender :: dropper :: after :: _ -> (
      match World.ip_path world ~from_node:dropper ~to_node:after with
      | None -> false
      | Some path ->
          let visible v =
            v = sender || Array.exists (fun p -> p = v) world.World.peers.(sender)
          in
          Array.exists
            (fun link ->
              List.for_all
                (fun v -> v = dropper || not (visible v))
                (World.vouchers world ~link))
            path.Routes.links)
  | _ -> false

(* How many potential helpers (peers of the sender, off the route) have a
   probe forest covering at least one link of the judged path — i.e. can
   corroborate a shield campaign where it counts. *)
let coalition_coverage ~world ~route =
  match route with
  | sender :: dropper :: after :: _ -> (
      match World.ip_path world ~from_node:dropper ~to_node:after with
      | None -> 0
      | Some path ->
          let covers peer =
            let forest = World.forest_links world peer in
            Array.exists
              (fun link -> Array.exists (fun l -> l = link) path.Routes.links)
              forest
          in
          Array.fold_left
            (fun count peer ->
              if peer <> dropper && (not (List.mem peer route)) && covers peer then count + 1
              else count)
            0 world.World.peers.(sender))
  | _ -> 0

(* Peers of [anchor] that corroborating reports must be visible from:
   excluded are the route's own hops and [avoid]. *)
let visible_helpers world ~anchor ~route ~avoid ~want =
  let taken = ref [] and count = ref 0 in
  Array.iter
    (fun peer ->
      if
        !count < want && peer <> avoid
        && (not (List.mem peer route))
        && not (List.mem peer !taken)
      then begin
        taken := peer :: !taken;
        incr count
      end)
    world.World.peers.(anchor);
  List.rev !taken

let collusion_against_route ~world ~route ~size ~drop_probability ~corroboration ~start
    ~duration =
  match route with
  | sender :: dropper :: after :: _ ->
      (* Prefer helpers whose probe forest overlaps the links the judge
         actually inspects — the dropper's egress path to the next hop:
         their corroborating "down" votes (and forgeries, which are
         bounded by the forest) land exactly where the verdict is decided. *)
      let link_count = Graph.link_count world.World.generated.World.Generate.graph in
      let judged = Array.make link_count false in
      (match World.ip_path world ~from_node:dropper ~to_node:after with
      | Some path -> Array.iter (fun link -> if link < link_count then judged.(link) <- true) path.Routes.links
      | None -> ());
      let overlaps peer =
        let forest = World.forest_links world peer in
        Array.exists (fun link -> link < link_count && judged.(link)) forest
      in
      let candidates = visible_helpers world ~anchor:sender ~route ~avoid:dropper ~want:max_int in
      let preferred, rest = List.partition overlaps candidates in
      let rec take n = function
        | [] -> []
        | x :: xs -> if n <= 0 then [] else x :: take (n - 1) xs
      in
      let helpers = take (max 0 (size - 1)) (preferred @ rest) in
      Some
        (Chaos.Collusion
           {
             members = Array.of_list (dropper :: helpers);
             drop_probability;
             corroboration;
             start;
             duration;
           })
  | _ -> None

let lying_against_route ~world ~route ~size ~corroboration ~start ~duration =
  match route with
  | sender :: victim :: after :: _ ->
      (* Framing must sway two parties: the sender (whose verdict blames
         the victim) and the victim itself (whose own no-commitment
         judgment would otherwise push a Network verdict that exonerates
         it on revision). Prefer reporters visible to both — peers of the
         sender that are also peers of the victim — and among those, ones
         whose forest covers the victim's egress so their lies land. *)
      let link_count = Graph.link_count world.World.generated.World.Generate.graph in
      let victim_egress = egress_links world [| victim |] ~link_count in
      let peer_of anchor peer = Array.exists (fun p -> p = peer) world.World.peers.(anchor) in
      let covers peer =
        let forest = World.forest_links world peer in
        Array.exists (fun link -> link < link_count && victim_egress.(link)) forest
      in
      let score peer =
        (if peer_of victim peer then 2 else 0) + if covers peer then 1 else 0
      in
      let candidates = visible_helpers world ~anchor:sender ~route ~avoid:victim ~want:max_int in
      let ranked =
        List.stable_sort (fun a b -> Int.compare (score b) (score a)) candidates
      in
      let rec take n = function
        | [] -> []
        | x :: xs -> if n <= 0 then [] else x :: take (n - 1) xs
      in
      let reporters = take size ranked in
      if reporters = [] then None
      else begin
        let egress =
          match World.ip_path world ~from_node:victim ~to_node:after with
          | Some path -> path.Routes.links
          | None -> [||]
        in
        Some
          ( Chaos.Lying_reporters
              {
                reporters = Array.of_list reporters;
                victim;
                corroboration;
                start;
                duration;
              },
            egress )
      end
  | _ -> None

let eclipse_against_route ~world ~route ~size ~start ~duration =
  match route with
  | sender :: victim :: _ :: _ ->
      let viable = ref [] and count = ref 0 in
      Array.iter
        (fun peer ->
          if
            !count < size && peer <> victim
            && (not (List.mem peer route))
            && Option.is_some (World.ip_path world ~from_node:sender ~to_node:peer)
            && Option.is_some (World.ip_path world ~from_node:peer ~to_node:victim)
          then begin
            viable := peer :: !viable;
            incr count
          end)
        world.World.peers.(sender);
      if !viable = [] then None
      else
        Some
          (Chaos.Eclipse
             { attackers = Array.of_list (List.rev !viable); victim; start; duration })
  | _ -> None
