type t = {
  physical : Tree.t;
  parents : int array;
  children : int array array;
  leaves : int array;
  chains : int array array;
  descendant_leaves : int array array;
}

let of_tree tree =
  let n = Tree.node_count tree in
  let physical_leaves = Tree.leaves tree in
  let is_leaf = Array.make n false in
  Array.iter (fun node -> is_leaf.(node) <- true) physical_leaves;
  (* Kept nodes: root, physical leaves, and branching points. *)
  let keep = Array.make n false in
  keep.(0) <- true;
  for node = 0 to n - 1 do
    if is_leaf.(node) || Array.length (Tree.children tree node) >= 2 then keep.(node) <- true
  done;
  let logical_of_physical = Array.make n (-1) in
  let kept = ref [] and kept_count = ref 0 in
  for node = 0 to n - 1 do
    if keep.(node) then begin
      logical_of_physical.(node) <- !kept_count;
      incr kept_count;
      kept := node :: !kept
    end
  done;
  let physical_nodes = Array.of_list (List.rev !kept) in
  let count = !kept_count in
  let parents = Array.make count (-1) in
  let chains = Array.make count [||] in
  for logical = 1 to count - 1 do
    let physical_node = physical_nodes.(logical) in
    (* Walk up through collapsed nodes to the nearest kept ancestor,
       collecting the physical chain top-down. *)
    let rec ascend node acc =
      let parent = Tree.parent tree node in
      let acc = Tree.parent_link tree node :: acc in
      if keep.(parent) then (parent, acc) else ascend parent acc
    in
    let ancestor, chain = ascend physical_node [] in
    parents.(logical) <- logical_of_physical.(ancestor);
    chains.(logical) <- Array.of_list chain
  done;
  let child_lists = Array.make count [] in
  for logical = count - 1 downto 1 do
    child_lists.(parents.(logical)) <- logical :: child_lists.(parents.(logical))
  done;
  let children = Array.map Array.of_list child_lists in
  let leaves = Array.map (fun node -> logical_of_physical.(node)) physical_leaves in
  (* Leaf index sets, computed bottom-up. *)
  let descendant_lists = Array.make count [] in
  Array.iteri
    (fun leaf_index logical ->
      descendant_lists.(logical) <- [ leaf_index ])
    leaves;
  (* Logical nodes are numbered in physical preorder, so children have
     larger indices than parents; a reverse sweep accumulates leaf sets. *)
  for logical = count - 1 downto 1 do
    let parent = parents.(logical) in
    descendant_lists.(parent) <- descendant_lists.(logical) @ descendant_lists.(parent)
  done;
  let descendant_leaves =
    Array.map (fun l -> Array.of_list (List.sort_uniq Int.compare l)) descendant_lists
  in
  { physical = tree; parents; children; leaves; chains; descendant_leaves }

let physical t = t.physical
let node_count t = Array.length t.parents
let parent t node = t.parents.(node)
let children t node = t.children.(node)
let leaves t = Array.copy t.leaves
let chain t node = Array.copy t.chains.(node)
let leaf_count t = Array.length t.leaves
let descendant_leaves t node = Array.copy t.descendant_leaves.(node)
