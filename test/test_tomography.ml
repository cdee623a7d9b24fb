module Graph = Concilium_topology.Graph
module Routes = Concilium_topology.Routes
module Tree = Concilium_tomography.Tree
module Logical_tree = Concilium_tomography.Logical_tree
module Probing = Concilium_tomography.Probing
module Minc = Concilium_tomography.Minc
module Observation = Concilium_tomography.Observation
module Snapshot = Concilium_tomography.Snapshot
module Feedback_verify = Concilium_tomography.Feedback_verify
module Freshness = Concilium_overlay.Freshness
module Id = Concilium_overlay.Id
module Pki = Concilium_crypto.Pki
module Signed = Concilium_crypto.Signed
module Prng = Concilium_util.Prng

let check = Alcotest.check

(* A fixed binary-ish probe tree:
          0
          |        link 0
          1
        /   \      links 1, 2
       2     3
      / \     \    links 3, 4, 5
     4   5     6
   Leaves: 4, 5, 6 (routers). *)
let fixture_tree () =
  let b = Graph.Builder.create 7 in
  let links =
    [ (0, 1); (1, 2); (1, 3); (2, 4); (2, 5); (3, 6) ]
  in
  List.iter (fun (u, v) -> Graph.Builder.add_link b u v) links;
  let g = Graph.build b in
  let path target = Option.get (Routes.shortest_path g ~source:0 ~target) in
  let tree = Tree.of_paths ~root:0 ~paths:[| path 4; path 5; path 6 |] in
  (g, tree)

(* ---------- Tree ---------- *)

let test_tree_structure () =
  let _, tree = fixture_tree () in
  check Alcotest.int "nodes" 7 (Tree.node_count tree);
  check Alcotest.int "root" 0 (Tree.root tree);
  check Alcotest.int "leaf count" 3 (Array.length (Tree.leaves tree));
  let leaf_routers = Array.map (Tree.router_of tree) (Tree.leaves tree) in
  check (Alcotest.array Alcotest.int) "leaf routers" [| 4; 5; 6 |] leaf_routers;
  check Alcotest.int "six links" 6 (Array.length (Tree.physical_links tree))

let test_tree_paths_to_leaves () =
  let g, tree = fixture_tree () in
  let leaf4 = Option.get (Tree.leaf_of_router tree 4) in
  let links = Tree.path_links_to tree leaf4 in
  check Alcotest.int "three hops" 3 (Array.length links);
  let expected =
    [|
      Option.get (Graph.link_between g 0 1);
      Option.get (Graph.link_between g 1 2);
      Option.get (Graph.link_between g 2 4);
    |]
  in
  check (Alcotest.array Alcotest.int) "root-down order" expected links

let test_tree_shared_prefix_dedup () =
  let _, tree = fixture_tree () in
  (* Routers 0,1,2 are shared by the paths to 4 and 5 but appear once. *)
  let routers = List.init (Tree.node_count tree) (Tree.router_of tree) in
  check Alcotest.int "no duplicates" (List.length routers)
    (List.length (List.sort_uniq Int.compare routers))

let test_tree_rejects_foreign_path () =
  let g, _ = fixture_tree () in
  let path = Option.get (Routes.shortest_path g ~source:1 ~target:4) in
  Alcotest.check_raises "wrong root" (Invalid_argument "Tree.of_paths: path does not start at root")
    (fun () -> ignore (Tree.of_paths ~root:0 ~paths:[| path |]))

(* ---------- Logical tree ---------- *)

let test_logical_collapse () =
  let _, tree = fixture_tree () in
  let logical = Logical_tree.of_tree tree in
  (* Kept: root(0), branch router 1, branch router 2, leaves 4,5,6.
     Router 3 is a pass-through and collapses into leaf 6's chain. *)
  check Alcotest.int "logical nodes" 6 (Logical_tree.node_count logical);
  check Alcotest.int "leaves" 3 (Logical_tree.leaf_count logical);
  let leaf6 = (Logical_tree.leaves logical).(2) in
  check Alcotest.int "collapsed chain length" 2 (Array.length (Logical_tree.chain logical leaf6))

let test_logical_descendants () =
  let _, tree = fixture_tree () in
  let logical = Logical_tree.of_tree tree in
  check (Alcotest.array Alcotest.int) "root sees all leaves" [| 0; 1; 2 |]
    (Logical_tree.descendant_leaves logical 0);
  let leaf0 = (Logical_tree.leaves logical).(0) in
  check (Alcotest.array Alcotest.int) "leaf sees itself" [| 0 |]
    (Logical_tree.descendant_leaves logical leaf0)

(* ---------- Probing ---------- *)

let test_probe_round_shared_fate () =
  let _, tree = fixture_tree () in
  let rng = Prng.of_seed 60L in
  (* Kill the shared root link: nobody can receive, ever. *)
  let loss_of_link link = if link = 0 then 1. else 0. in
  let round = Probing.probe_round ~rng ~loss_of_link ~tree () in
  check (Alcotest.array Alcotest.bool) "all lost" [| false; false; false |]
    round.Probing.received

let test_probe_round_perfect_network () =
  let _, tree = fixture_tree () in
  let rng = Prng.of_seed 61L in
  let round = Probing.probe_round ~rng ~loss_of_link:(fun _ -> 0.) ~tree () in
  check (Alcotest.array Alcotest.bool) "all received" [| true; true; true |]
    round.Probing.received;
  check (Alcotest.array Alcotest.bool) "all acked" [| true; true; true |] round.Probing.acked

let test_suppressing_leaf () =
  let _, tree = fixture_tree () in
  let rng = Prng.of_seed 62L in
  let behavior i = if i = 0 then Probing.Suppress_acks 1.0 else Probing.Honest in
  let round = Probing.probe_round ~rng ~loss_of_link:(fun _ -> 0.) ~tree ~behavior () in
  check Alcotest.bool "received" true round.Probing.received.(0);
  check Alcotest.bool "ack suppressed" false round.Probing.acked.(0)

let test_spurious_leaf_caught_by_nonce () =
  let _, tree = fixture_tree () in
  let rng = Prng.of_seed 63L in
  let behavior i = if i = 2 then Probing.Spurious_acks 1.0 else Probing.Honest in
  (* Cut leaf 6's last link so leaf index 2 never receives. *)
  let g, _ = fixture_tree () in
  let cut = Option.get (Graph.link_between g 3 6) in
  let loss_of_link link = if link = cut then 1. else 0. in
  let caught = ref 0 and sneaked = ref 0 in
  for _ = 1 to 50 do
    let round = Probing.probe_round ~rng ~loss_of_link ~tree ~behavior () in
    if List.mem 2 round.Probing.forged_detected then incr caught;
    if round.Probing.acked.(2) then incr sneaked
  done;
  (* Guessing a 16-bit nonce succeeds ~1/65536 of the time. *)
  check Alcotest.bool (Printf.sprintf "caught %d, sneaked %d" !caught !sneaked) true
    (!caught >= 48 && !sneaked <= 2)

let test_classify_round () =
  let _, tree = fixture_tree () in
  let logical = Logical_tree.of_tree tree in
  (* Leaves 4 and 5 acked; leaf 6 silent: the chain to 6 is Probed_down,
     everything on the acked paths is Probed_up. *)
  let verdicts = Probing.classify_round logical [| true; true; false |] in
  let leaf6 = (Logical_tree.leaves logical).(2) in
  check Alcotest.bool "chain to 6 down" true (verdicts.(leaf6) = Probing.Probed_down);
  let leaf4 = (Logical_tree.leaves logical).(0) in
  check Alcotest.bool "chain to 4 up" true (verdicts.(leaf4) = Probing.Probed_up);
  (* Nothing acked: everything indeterminate (can't tell first bad link). *)
  let silent = Probing.classify_round logical [| false; false; false |] in
  Array.iteri
    (fun node verdict ->
      if node > 0 then check Alcotest.bool "indeterminate" true (verdict = Probing.Indeterminate))
    silent

(* ---------- MINC ---------- *)

let minc_fixture ~loss_of_link ~rounds ~seed =
  let _, tree = fixture_tree () in
  let logical = Logical_tree.of_tree tree in
  let rng = Prng.of_seed seed in
  let observed = Probing.probe_rounds ~rng ~loss_of_link ~tree ~count:rounds () in
  (logical, Minc.infer_from_rounds logical observed)

let test_minc_lossless () =
  let _, estimate = minc_fixture ~loss_of_link:(fun _ -> 0.) ~rounds:200 ~seed:64L in
  Array.iteri
    (fun node success ->
      check (Alcotest.float 1e-9) (Printf.sprintf "node %d" node) 1. success)
    estimate.Minc.link_success

let test_minc_recovers_lossy_link () =
  let g, _ = fixture_tree () in
  let lossy = Option.get (Graph.link_between g 1 2) in
  let loss_of_link link = if link = lossy then 0.3 else 0.01 in
  let logical, estimate = minc_fixture ~loss_of_link ~rounds:4000 ~seed:65L in
  (* Find the logical node whose chain contains the lossy link. *)
  let found = ref false in
  for node = 1 to Logical_tree.node_count logical - 1 do
    if Array.exists (( = ) lossy) (Logical_tree.chain logical node) then begin
      found := true;
      check (Alcotest.float 0.05)
        (Printf.sprintf "inferred loss on node %d" node)
        0.3 (Minc.link_loss estimate node)
    end
  done;
  check Alcotest.bool "lossy link located" true !found

let test_minc_suspect_links () =
  let g, _ = fixture_tree () in
  let dead = Option.get (Graph.link_between g 2 5) in
  let loss_of_link link = if link = dead then 0.95 else 0.005 in
  let logical, estimate = minc_fixture ~loss_of_link ~rounds:1500 ~seed:66L in
  (* physical links of every logical chain inferred lossier than 50% *)
  let suspects =
    List.sort_uniq Int.compare
      (List.concat_map
         (fun node ->
           if Minc.link_loss estimate node > 0.5 then Array.to_list (Logical_tree.chain logical node)
           else [])
         (List.init (Logical_tree.node_count logical - 1) (fun i -> i + 1)))
  in
  check (Alcotest.list Alcotest.int) "exactly the dead link" [ dead ] suspects

let test_minc_rejects_empty () =
  let _, tree = fixture_tree () in
  let logical = Logical_tree.of_tree tree in
  Alcotest.check_raises "no rounds" (Invalid_argument "Minc.infer: no rounds") (fun () ->
      ignore (Minc.infer logical ~acked:[||]))

(* ---------- Observation ---------- *)

let test_observation_window_queries () =
  let store = Observation.create () in
  List.iter
    (fun (time, prober, link, up) -> Observation.record store { Observation.time; prober; link; up })
    [ (10., 1, 5, true); (20., 2, 5, false); (30., 1, 5, true); (20., 1, 6, true) ];
  check Alcotest.int "count" 4 (Observation.count store);
  let window = Observation.on_link store ~link:5 ~lo:15. ~hi:30. in
  check Alcotest.int "windowed" 2 (List.length window);
  check (Alcotest.float 1e-9) "oldest first" 20. (List.hd window).Observation.time

(* ---------- Snapshot ---------- *)

let snapshot_fixture () =
  let pki = Pki.create ~seed:70L in
  let origin = Id.random (Prng.of_seed 71L) in
  let peer = Id.random (Prng.of_seed 72L) in
  let origin_cert, origin_secret = Pki.issue pki ~address:"o" ~node_id:(Id.to_hex origin) in
  let peer_cert, peer_secret = Pki.issue pki ~address:"p" ~node_id:(Id.to_hex peer) in
  let stamp = Freshness.issue ~holder:peer ~secret:peer_secret ~public:peer_cert.Pki.subject_key ~now:99. in
  let summary = { Snapshot.peer; loss_level = 5; freshness = stamp } in
  let snapshot =
    Snapshot.make ~origin ~secret:origin_secret ~public:origin_cert.Pki.subject_key ~now:100.
      ~summaries:[ summary ]
  in
  (pki, snapshot)

let test_snapshot_sign_verify () =
  let pki, snapshot = snapshot_fixture () in
  check Alcotest.bool "verifies" true (Snapshot.verify pki snapshot);
  let body = Signed.payload snapshot in
  let tampered =
    Signed.forge ~signer:(Signed.signer snapshot)
      ~fake_signature:(Pki.signature_of_string "bogus")
      { body with Snapshot.issued_at = 500. }
  in
  check Alcotest.bool "tampered rejected" false (Snapshot.verify pki tampered)

let test_snapshot_wire_size () =
  let _, snapshot = snapshot_fixture () in
  (* 1 entry: header 20 + 145 + signature 128. *)
  check Alcotest.int "wire bytes" (20 + 145 + 128) (Snapshot.wire_bytes snapshot)

(* ---------- Feedback verification ---------- *)

let test_feedback_flags_suppressor () =
  let _, tree = fixture_tree () in
  let logical = Logical_tree.of_tree tree in
  let rng = Prng.of_seed 80L in
  let behavior i = if i = 1 then Probing.Suppress_acks 0.5 else Probing.Honest in
  let rounds =
    Probing.probe_rounds ~rng ~loss_of_link:(fun _ -> 0.01) ~tree ~behavior ~count:800 ()
  in
  let estimate = Minc.infer_from_rounds logical rounds in
  let suspicions =
    Feedback_verify.suspect_leaves estimate
      ~expected_chain_success:(fun _ -> 0.99)
      ~significance:0.001
  in
  check (Alcotest.list Alcotest.int) "suppressor flagged" [ 1 ]
    (List.map (fun s -> s.Feedback_verify.leaf_index) suspicions)

let test_feedback_accepts_honest_world () =
  let _, tree = fixture_tree () in
  let logical = Logical_tree.of_tree tree in
  let rng = Prng.of_seed 81L in
  let rounds = Probing.probe_rounds ~rng ~loss_of_link:(fun _ -> 0.01) ~tree ~count:800 () in
  let estimate = Minc.infer_from_rounds logical rounds in
  let suspicions =
    Feedback_verify.suspect_leaves estimate
      ~expected_chain_success:(fun _ -> 0.97)
      ~significance:0.001
  in
  check (Alcotest.list Alcotest.int) "nobody flagged" []
    (List.map (fun s -> s.Feedback_verify.leaf_index) suspicions)

let test_feedback_flags_colluding_suppressors () =
  (* Two leaves suppressing in concert corrupt the MLE they are measured
     against, yet each still falls significantly below its own predicted
     ack rate — mutual corroboration does not hide either of them. *)
  let _, tree = fixture_tree () in
  let logical = Logical_tree.of_tree tree in
  let rng = Prng.of_seed 82L in
  let behavior i = if i = 0 || i = 2 then Probing.Suppress_acks 0.5 else Probing.Honest in
  let rounds =
    Probing.probe_rounds ~rng ~loss_of_link:(fun _ -> 0.01) ~tree ~behavior ~count:800 ()
  in
  let estimate = Minc.infer_from_rounds logical rounds in
  let suspicions =
    Feedback_verify.suspect_leaves estimate
      ~expected_chain_success:(fun _ -> 0.99)
      ~significance:0.001
  in
  let flagged =
    List.sort Int.compare (List.map (fun s -> s.Feedback_verify.leaf_index) suspicions)
  in
  check (Alcotest.list Alcotest.int) "both suppressors flagged" [ 0; 2 ] flagged

(* ---------- Probe sharing (Section 3.7) ---------- *)

module Probe_sharing = Concilium_tomography.Probe_sharing

let test_probe_sharing_amortization () =
  (* Two identical trees: consolidation halves the cost. Disjoint trees:
     no saving. *)
  let trees = [| [| 1; 2; 3 |]; [| 1; 2; 3 |]; [| 7; 8 |] |] in
  let same = Probe_sharing.plan ~trees ~members:[| 0; 1 |] in
  check Alcotest.int "individual" 6 same.Probe_sharing.individual_links;
  check Alcotest.int "consolidated" 3 same.Probe_sharing.consolidated_links;
  check (Alcotest.float 1e-9) "half" 0.5 same.Probe_sharing.amortization;
  let disjoint = Probe_sharing.plan ~trees ~members:[| 0; 2 |] in
  check (Alcotest.float 1e-9) "no saving" 1. disjoint.Probe_sharing.amortization;
  check (Alcotest.float 1e-9) "bytes scale" 100.
    (Probe_sharing.individual_bytes disjoint ~per_tree_bytes:50.);
  check (Alcotest.float 1e-9) "consolidated bytes" 50.
    (Probe_sharing.consolidated_bytes same ~per_tree_bytes:50.)

let prop_minc_recovers_random_losses =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"MINC recovers random loss assignments" ~count:8
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let _, tree = fixture_tree () in
         let logical = Logical_tree.of_tree tree in
         let loss_rng = Prng.of_seed (Int64.of_int seed) in
         let losses = Hashtbl.create 8 in
         Array.iter
           (fun link -> Hashtbl.replace losses link (Prng.float loss_rng 0.25))
           (Tree.physical_links tree)
         |> ignore;
         let loss_of_link link = Hashtbl.find losses link in
         let rng = Prng.of_seed (Int64.of_int (seed + 1)) in
         let rounds = Probing.probe_rounds ~rng ~loss_of_link ~tree ~count:5000 () in
         let estimate = Minc.infer_from_rounds logical rounds in
         let ok = ref true in
         for node = 1 to Logical_tree.node_count logical - 1 do
           let chain = Logical_tree.chain logical node in
           let true_loss =
             1. -. Array.fold_left (fun acc l -> acc *. (1. -. loss_of_link l)) 1. chain
           in
           if abs_float (Minc.link_loss estimate node -. true_loss) > 0.06 then ok := false
         done;
         !ok))

(* Property: the single-sweep [Minc.infer] and the retained
   O(rounds * nodes * leaves) reference produce identical estimates on
   arbitrary random trees and ack matrices. Gamma comes from integer hit
   counts in both, so equality is exact, not approximate. *)
let prop_minc_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"MINC sweep matches reference oracle" ~count:40
       QCheck.(int_range 0 1_000_000)
       (fun seed ->
         let rng = Prng.of_seed (Int64.of_int seed) in
         (* Random rooted tree: router i > 0 hangs off a random earlier
            router, so parent indices always precede children. *)
         let n = 4 + Prng.int rng 37 in
         let b = Graph.Builder.create n in
         let has_child = Array.make n false in
         for i = 1 to n - 1 do
           let parent = Prng.int rng i in
           has_child.(parent) <- true;
           Graph.Builder.add_link b parent i
         done;
         let g = Graph.build b in
         let leaves =
           Array.of_list
             (List.filter (fun i -> not has_child.(i)) (List.init n (fun i -> i)))
         in
         let path target =
           match Routes.shortest_path g ~source:0 ~target with
           | Some p -> p
           | None -> invalid_arg "random tree is connected by construction"
         in
         let tree = Tree.of_paths ~root:0 ~paths:(Array.map path leaves) in
         let logical = Logical_tree.of_tree tree in
         let leaf_count = Logical_tree.leaf_count logical in
         let rounds = 1 + Prng.int rng 50 in
         let acked =
           Array.init rounds (fun _ -> Array.init leaf_count (fun _ -> Prng.bool rng))
         in
         let fast = Minc.infer logical ~acked in
         let reference = Minc.infer_reference logical ~acked in
         fast.Minc.gamma = reference.Minc.gamma
         && fast.Minc.path_success = reference.Minc.path_success
         && fast.Minc.link_success = reference.Minc.link_success))

let suites =
  [
    ( "tomography.tree",
      [
        Alcotest.test_case "structure" `Quick test_tree_structure;
        Alcotest.test_case "paths to leaves" `Quick test_tree_paths_to_leaves;
        Alcotest.test_case "shared prefixes deduplicated" `Quick test_tree_shared_prefix_dedup;
        Alcotest.test_case "rejects foreign paths" `Quick test_tree_rejects_foreign_path;
      ] );
    ( "tomography.logical_tree",
      [
        Alcotest.test_case "chain collapse" `Quick test_logical_collapse;
        Alcotest.test_case "descendant leaves" `Quick test_logical_descendants;
      ] );
    ( "tomography.probing",
      [
        Alcotest.test_case "striping shares fate" `Quick test_probe_round_shared_fate;
        Alcotest.test_case "perfect network" `Quick test_probe_round_perfect_network;
        Alcotest.test_case "ack suppression" `Quick test_suppressing_leaf;
        Alcotest.test_case "nonce catches forged acks" `Quick test_spurious_leaf_caught_by_nonce;
        Alcotest.test_case "lightweight classification" `Quick test_classify_round;
      ] );
    ( "tomography.minc",
      [
        prop_minc_recovers_random_losses;
        prop_minc_matches_reference;
        Alcotest.test_case "lossless tree" `Quick test_minc_lossless;
        Alcotest.test_case "recovers a lossy interior link" `Quick test_minc_recovers_lossy_link;
        Alcotest.test_case "suspect link extraction" `Quick test_minc_suspect_links;
        Alcotest.test_case "rejects empty input" `Quick test_minc_rejects_empty;
      ] );
    ( "tomography.observation",
      [ Alcotest.test_case "window queries and pruning" `Quick test_observation_window_queries ]
    );
    ( "tomography.snapshot",
      [
        Alcotest.test_case "sign and verify" `Quick test_snapshot_sign_verify;
        Alcotest.test_case "wire size model" `Quick test_snapshot_wire_size;
      ] );
    ( "tomography.probe_sharing",
      [
        Alcotest.test_case "amortization" `Quick test_probe_sharing_amortization;
      ] );
    ( "tomography.feedback_verify",
      [
        Alcotest.test_case "flags a suppressing leaf" `Quick test_feedback_flags_suppressor;
        Alcotest.test_case "flags colluding suppressors" `Quick
          test_feedback_flags_colluding_suppressors;
        Alcotest.test_case "accepts honest leaves" `Quick test_feedback_accepts_honest_world;
      ] );
  ]
