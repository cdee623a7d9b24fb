module Graph = Concilium_topology.Graph
module Generate = Concilium_topology.Generate
module Routes = Concilium_topology.Routes
module Prng = Concilium_util.Prng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---------- Graph ---------- *)

let diamond () =
  (* 0-1, 0-2, 1-3, 2-3: two equal-length paths from 0 to 3. *)
  let b = Graph.Builder.create 4 in
  Graph.Builder.add_link b 0 1;
  Graph.Builder.add_link b 0 2;
  Graph.Builder.add_link b 1 3;
  Graph.Builder.add_link b 2 3;
  Graph.build b

let test_graph_basic () =
  let g = diamond () in
  check Alcotest.int "nodes" 4 (Graph.node_count g);
  check Alcotest.int "links" 4 (Graph.link_count g);
  check Alcotest.int "degree 0" 2 (Graph.degree g 0);
  check Alcotest.bool "connected" true (Graph.is_connected g)

let test_graph_dedup_and_self_loops () =
  let b = Graph.Builder.create 3 in
  Graph.Builder.add_link b 0 1;
  Graph.Builder.add_link b 1 0;
  Graph.Builder.add_link b 2 2;
  let g = Graph.build b in
  check Alcotest.int "deduped to one link" 1 (Graph.link_count g);
  check Alcotest.bool "disconnected" false (Graph.is_connected g)

let test_graph_link_lookup () =
  let g = diamond () in
  (match Graph.link_between g 0 1 with
  | Some link ->
      let lo, hi = Graph.link_endpoints g link in
      check (Alcotest.pair Alcotest.int Alcotest.int) "endpoints" (0, 1) (lo, hi)
  | None -> Alcotest.fail "expected link 0-1");
  check (Alcotest.option Alcotest.int) "absent link" None (Graph.link_between g 1 2)

let test_graph_end_hosts () =
  let b = Graph.Builder.create 4 in
  Graph.Builder.add_link b 0 1;
  Graph.Builder.add_link b 1 2;
  Graph.Builder.add_link b 1 3;
  let g = Graph.build b in
  check (Alcotest.array Alcotest.int) "degree-1 nodes" [| 0; 2; 3 |] (Graph.end_hosts g)

let test_graph_add_node () =
  let b = Graph.Builder.create 1 in
  let fresh = Graph.Builder.add_node b in
  check Alcotest.int "appended id" 1 fresh;
  Graph.Builder.add_link b 0 fresh;
  let g = Graph.build b in
  check Alcotest.int "grown" 2 (Graph.node_count g)

(* ---------- Generate ---------- *)

let test_generate_tiny_invariants () =
  let world = Generate.generate (Generate.tiny ~seed:3L) in
  let g = world.Generate.graph in
  check Alcotest.bool "connected" true (Graph.is_connected g);
  (* Every End_host node has degree exactly 1; every degree-1 node at tiny
     scale is an end host. *)
  for node = 0 to Graph.node_count g - 1 do
    match Generate.class_of world node with
    | Generate.End_host ->
        check Alcotest.int (Printf.sprintf "end host %d degree" node) 1 (Graph.degree g node)
    | Generate.Transit | Generate.Stub -> ()
  done;
  (* Every End_host is degree-1, so it appears in Graph.end_hosts; the
     converse need not hold (a leaf stub router is also degree-1). *)
  check Alcotest.bool "end hosts within degree-1 census" true
    (Array.length (Graph.end_hosts g) >= Generate.end_host_count world)

let test_generate_deterministic () =
  let a = Generate.generate (Generate.tiny ~seed:5L) in
  let b = Generate.generate (Generate.tiny ~seed:5L) in
  check Alcotest.int "same nodes" (Graph.node_count a.Generate.graph)
    (Graph.node_count b.Generate.graph);
  check Alcotest.int "same links" (Graph.link_count a.Generate.graph)
    (Graph.link_count b.Generate.graph);
  let c = Generate.generate (Generate.tiny ~seed:6L) in
  check Alcotest.bool "different seed differs" true
    (Graph.link_count c.Generate.graph <> Graph.link_count a.Generate.graph
    || Graph.end_hosts c.Generate.graph <> Graph.end_hosts a.Generate.graph)

let test_generate_small_scale_population () =
  let params = Generate.small_scale ~seed:1L in
  let world = Generate.generate params in
  let expected_hosts =
    params.Generate.transit_domains * params.Generate.routers_per_transit
    * params.Generate.stub_domains_per_transit_router * params.Generate.end_hosts_per_stub
  in
  check Alcotest.int "end hosts" expected_hosts (Generate.end_host_count world);
  check Alcotest.bool "connected" true (Graph.is_connected world.Generate.graph)

(* ---------- Routes ---------- *)

let test_bfs_shortest_on_diamond () =
  let g = diamond () in
  match Routes.shortest_path g ~source:0 ~target:3 with
  | None -> Alcotest.fail "expected a path"
  | Some path ->
      check Alcotest.int "hop count" 2 (Routes.hop_count path);
      check Alcotest.int "starts at source" 0 path.Routes.nodes.(0);
      check Alcotest.int "ends at target" 3 path.Routes.nodes.(2)

let test_bfs_unreachable () =
  let b = Graph.Builder.create 3 in
  Graph.Builder.add_link b 0 1;
  let g = Graph.build b in
  check Alcotest.bool "unreachable" true (Routes.shortest_path g ~source:0 ~target:2 = None)

let test_bfs_self_path () =
  let g = diamond () in
  match Routes.shortest_path g ~source:1 ~target:1 with
  | None -> Alcotest.fail "self path"
  | Some path -> check Alcotest.int "zero hops" 0 (Routes.hop_count path)

let test_link_depth_fraction () =
  let g = diamond () in
  let path = Option.get (Routes.shortest_path g ~source:0 ~target:3) in
  check (Alcotest.float 1e-9) "first link" 0. (Routes.link_depth_fraction path 0);
  check (Alcotest.float 1e-9) "last link" 1. (Routes.link_depth_fraction path 1)

let prop_bfs_paths_consistent =
  QCheck.Test.make ~name:"BFS paths are connected, minimal, and well-formed" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let world = Generate.generate (Generate.tiny ~seed:(Int64.of_int seed)) in
      let g = world.Generate.graph in
      let rng = Prng.of_seed (Int64.of_int (seed + 1)) in
      let source = Prng.int rng (Graph.node_count g) in
      let targets = Array.init 5 (fun _ -> Prng.int rng (Graph.node_count g)) in
      let paths = Routes.shortest_paths g ~source ~targets in
      Array.for_all
        (function
          | None -> false (* tiny worlds are connected *)
          | Some path ->
              let nodes = path.Routes.nodes and links = path.Routes.links in
              Array.length nodes = Array.length links + 1
              && nodes.(0) = source
              && Array.for_all (fun x -> x) (Array.mapi
                   (fun i link ->
                     let lo, hi = Graph.link_endpoints g link in
                     (lo = nodes.(i) && hi = nodes.(i + 1))
                     || (hi = nodes.(i) && lo = nodes.(i + 1)))
                   links))
        paths)

let prop_bfs_triangle_inequality =
  QCheck.Test.make ~name:"BFS distances obey the triangle inequality" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let world = Generate.generate (Generate.tiny ~seed:(Int64.of_int seed)) in
      let g = world.Generate.graph in
      let rng = Prng.of_seed (Int64.of_int (seed + 7)) in
      let pick () = Prng.int rng (Graph.node_count g) in
      let a = pick () and b = pick () and c = pick () in
      let distance x y =
        match Routes.shortest_path g ~source:x ~target:y with
        | Some p -> Routes.hop_count p
        | None -> max_int
      in
      distance a c <= distance a b + distance b c)


let suites =
  [
    ( "topology.graph",
      [
        Alcotest.test_case "basics" `Quick test_graph_basic;
        Alcotest.test_case "dedup and self-loops" `Quick test_graph_dedup_and_self_loops;
        Alcotest.test_case "link lookup" `Quick test_graph_link_lookup;
        Alcotest.test_case "end hosts" `Quick test_graph_end_hosts;
        Alcotest.test_case "add node" `Quick test_graph_add_node;
      ] );
    ( "topology.generate",
      [
        Alcotest.test_case "tiny invariants" `Quick test_generate_tiny_invariants;
        Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
        Alcotest.test_case "small-scale population" `Quick test_generate_small_scale_population;
      ] );
    ( "topology.routes",
      [
        Alcotest.test_case "diamond shortest path" `Quick test_bfs_shortest_on_diamond;
        Alcotest.test_case "unreachable" `Quick test_bfs_unreachable;
        Alcotest.test_case "self path" `Quick test_bfs_self_path;
        Alcotest.test_case "link depth fraction" `Quick test_link_depth_fraction;
        qtest prop_bfs_paths_consistent;
        qtest prop_bfs_triangle_inequality;
      ] );
  ]
