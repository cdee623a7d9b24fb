type estimate = {
  logical : Logical_tree.t;
  rounds : int;
  gamma : float array;
  path_success : float array;
  link_success : float array;
}

(* Root of g(a) = (1 - gamma_k/a) - prod_j (1 - gamma_j/a) in (lo, 1].
   g(lo) <= 0 at lo = gamma_k and g is increasing towards 1 under the
   positive correlation the shared link induces; sampling noise can leave
   g(1) < 0, in which case the MLE clips to 1. *)
let solve_node ~gamma_k ~child_gammas =
  if gamma_k <= 0. then 0.
  else begin
    let g a =
      let product =
        Array.fold_left (fun acc gamma_j -> acc *. (1. -. (gamma_j /. a))) 1. child_gammas
      in
      1. -. (gamma_k /. a) -. product
    in
    if g 1. < 0. then 1.
    else begin
      (* Bisection with an early exit: the bracket starts at most 1 wide, so
         the tolerance is reached within ~40 halvings; the iteration cap only
         guards against pathological floating-point stalls. *)
      let lo = ref gamma_k and hi = ref 1. in
      let iterations = ref 0 in
      while !hi -. !lo > 1e-12 && !iterations < 60 do
        incr iterations;
        let mid = 0.5 *. (!lo +. !hi) in
        if g mid < 0. then lo := mid else hi := mid
      done;
      0.5 *. (!lo +. !hi)
    end
  end

let check_input logical ~acked =
  let rounds = Array.length acked in
  if rounds = 0 then invalid_arg "Minc.infer: no rounds";
  let leaf_count = Logical_tree.leaf_count logical in
  Array.iter
    (fun vector ->
      if Array.length vector <> leaf_count then
        invalid_arg "Minc.infer: ack vector width mismatch")
    acked

(* Shared tail: turn per-node subtree-ack counts into the MLE estimate. *)
let estimate_of_hits logical ~rounds hits =
  let count = Logical_tree.node_count logical in
  let gamma = Array.map (fun h -> float_of_int h /. float_of_int rounds) hits in
  let path_success = Array.make count 1. in
  for node = 0 to count - 1 do
    let children = Logical_tree.children logical node in
    if node = 0 then path_success.(0) <- 1.
    else if Array.length children = 0 then path_success.(node) <- gamma.(node)
    else begin
      let child_gammas = Array.map (fun child -> gamma.(child)) children in
      path_success.(node) <- solve_node ~gamma_k:gamma.(node) ~child_gammas
    end
  done;
  let link_success =
    Array.init count (fun node ->
        if node = 0 then 1.
        else begin
          let parent_success = path_success.(Logical_tree.parent logical node) in
          if parent_success <= 0. then 0.
          else min 1. (max 0. (path_success.(node) /. parent_success))
        end)
  in
  { logical; rounds; gamma; path_success; link_success }

(* gamma_k counts rounds in which some leaf below k acked. A single
   bottom-up sweep per round marks each acked leaf's logical node and
   propagates the mark to its parent: logical nodes are numbered in
   physical preorder (children carry larger indices than parents, see
   Logical_tree.of_tree), so one reverse pass reaches every ancestor.
   O(rounds * nodes), versus the reference's O(rounds * nodes * leaves). *)
let infer logical ~acked =
  check_input logical ~acked;
  let rounds = Array.length acked in
  let count = Logical_tree.node_count logical in
  let leaf_nodes = Logical_tree.leaves logical in
  let hits = Array.make count 0 in
  let reached = Array.make count false in
  Array.iter
    (fun vector ->
      Array.fill reached 0 count false;
      Array.iteri
        (fun leaf_index node -> if vector.(leaf_index) then reached.(node) <- true)
        leaf_nodes;
      for node = count - 1 downto 1 do
        if reached.(node) then begin
          hits.(node) <- hits.(node) + 1;
          reached.(Logical_tree.parent logical node) <- true
        end
      done;
      if reached.(0) then hits.(0) <- hits.(0) + 1)
    acked;
  estimate_of_hits logical ~rounds hits

(* The original quadratic-in-tree-size scan, kept verbatim as the oracle the
   tests and benchmarks compare [infer] against. *)
let infer_reference logical ~acked =
  check_input logical ~acked;
  let rounds = Array.length acked in
  let count = Logical_tree.node_count logical in
  let hits = Array.make count 0 in
  Array.iter
    (fun vector ->
      for node = 0 to count - 1 do
        if
          Array.exists
            (fun leaf_index -> vector.(leaf_index))
            (Logical_tree.descendant_leaves logical node)
        then hits.(node) <- hits.(node) + 1
      done)
    acked;
  estimate_of_hits logical ~rounds hits

let link_loss estimate node = 1. -. estimate.link_success.(node)

let infer_from_rounds ?(trace = Concilium_obs.Trace.noop) ?parent ?(time = 0.) logical rounds =
  let module Trace = Concilium_obs.Trace in
  let span =
    Trace.span_open trace ~time ~cat:"tomography" ?parent
      ~args:
        [
          ("rounds", Trace.Int (Array.length rounds));
          ("nodes", Trace.Int (Logical_tree.node_count logical));
        ]
      "minc.solve"
  in
  let estimate = infer logical ~acked:(Probing.acked_matrix rounds) in
  Trace.span_close trace ~time
    ~args:[ ("root_gamma", Trace.Float estimate.gamma.(0)) ]
    span;
  estimate
