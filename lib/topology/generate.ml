module Prng = Concilium_util.Prng

type node_class = Transit | Stub | End_host

type params = {
  seed : int64;
  transit_domains : int;
  routers_per_transit : int;
  transit_chords_per_domain : int;
  interdomain_extra_links : int;
  stub_domains_per_transit_router : int;
  routers_per_stub : int;
  stub_chords_per_domain : int;
  end_hosts_per_stub : int;
}

type world = { graph : Graph.t; classes : node_class array; params : params }

let paper_scale ~seed =
  {
    seed;
    transit_domains = 16;
    routers_per_transit = 20;
    transit_chords_per_domain = 10;
    interdomain_extra_links = 32;
    stub_domains_per_transit_router = 4;
    routers_per_stub = 56;
    stub_chords_per_domain = 40;
    end_hosts_per_stub = 30;
  }

let small_scale ~seed =
  {
    seed;
    transit_domains = 8;
    routers_per_transit = 10;
    transit_chords_per_domain = 5;
    interdomain_extra_links = 12;
    stub_domains_per_transit_router = 3;
    routers_per_stub = 18;
    stub_chords_per_domain = 12;
    end_hosts_per_stub = 12;
  }

let tiny ~seed =
  {
    seed;
    transit_domains = 3;
    routers_per_transit = 4;
    transit_chords_per_domain = 2;
    interdomain_extra_links = 2;
    stub_domains_per_transit_router = 2;
    routers_per_stub = 5;
    stub_chords_per_domain = 2;
    end_hosts_per_stub = 4;
  }

let validate p =
  if p.transit_domains < 1 then invalid_arg "Generate: need at least one transit domain";
  if p.routers_per_transit < 1 then invalid_arg "Generate: need transit routers";
  if p.routers_per_stub < 1 then invalid_arg "Generate: need stub routers";
  if p.stub_domains_per_transit_router < 0 || p.end_hosts_per_stub < 0 then
    invalid_arg "Generate: negative population"

let generate p =
  validate p;
  let rng = Prng.of_seed p.seed in
  let builder = Graph.Builder.create 0 in
  let classes = ref [] in
  let new_node cls =
    classes := cls :: !classes;
    Graph.Builder.add_node builder
  in
  (* Transit core: per-domain ring plus random chords. *)
  let transit_routers =
    Array.init p.transit_domains (fun _ ->
        Array.init p.routers_per_transit (fun _ -> new_node Transit))
  in
  Array.iter
    (fun domain ->
      let count = Array.length domain in
      if count > 1 then
        for i = 0 to count - 1 do
          Graph.Builder.add_link builder domain.(i) domain.((i + 1) mod count)
        done;
      for _ = 1 to p.transit_chords_per_domain do
        let a = Prng.choose rng domain and b = Prng.choose rng domain in
        Graph.Builder.add_link builder a b
      done)
    transit_routers;
  (* Inter-domain connectivity: domain ring plus random extra pairs. *)
  if p.transit_domains > 1 then
    for d = 0 to p.transit_domains - 1 do
      let here = transit_routers.(d) and next = transit_routers.((d + 1) mod p.transit_domains) in
      Graph.Builder.add_link builder (Prng.choose rng here) (Prng.choose rng next)
    done;
  for _ = 1 to p.interdomain_extra_links do
    let da = Prng.int rng p.transit_domains and db = Prng.int rng p.transit_domains in
    if da <> db then
      Graph.Builder.add_link builder
        (Prng.choose rng transit_routers.(da))
        (Prng.choose rng transit_routers.(db))
  done;
  (* Stub domains: a random tree rooted at a gateway router that links up to
     its transit router, densified with random chords; end hosts hang off
     random stub routers with a single link each. *)
  Array.iter
    (fun domain ->
      Array.iter
        (fun transit_router ->
          for _ = 1 to p.stub_domains_per_transit_router do
            let stub = Array.init p.routers_per_stub (fun _ -> new_node Stub) in
            Graph.Builder.add_link builder stub.(0) transit_router;
            for i = 1 to p.routers_per_stub - 1 do
              Graph.Builder.add_link builder stub.(i) stub.(Prng.int rng i)
            done;
            for _ = 1 to p.stub_chords_per_domain do
              let a = Prng.choose rng stub and b = Prng.choose rng stub in
              Graph.Builder.add_link builder a b
            done;
            for _ = 1 to p.end_hosts_per_stub do
              let host = new_node End_host in
              Graph.Builder.add_link builder host (Prng.choose rng stub)
            done
          done)
        domain)
    transit_routers;
  let graph = Graph.build builder in
  let classes = Array.of_list (List.rev !classes) in
  { graph; classes; params = p }

(* analysis: allow test-only — observation point: tests check the generated population *)
let end_host_count world =
  Array.fold_left
    (fun acc cls -> match cls with End_host -> acc + 1 | Transit | Stub -> acc)
    0 world.classes

(* analysis: allow test-only — observation point: tests check the generated population *)
let class_of world node = world.classes.(node)
