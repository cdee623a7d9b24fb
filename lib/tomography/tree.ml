module Routes = Concilium_topology.Routes

type t = {
  root : int;
  routers : int array; (* tree node -> router id *)
  parents : int array;
  parent_links : int array;
  children : int array array;
  leaves : int array;
  by_router : (int, int) Hashtbl.t;
}

(* Growable parallel arrays during construction. *)
type building = {
  mutable b_routers : int array;
  mutable b_parents : int array;
  mutable b_links : int array;
  mutable b_count : int;
}

let push b ~router ~parent ~link =
  let capacity = Array.length b.b_routers in
  if b.b_count = capacity then begin
    let next = max 16 (2 * capacity) in
    let grow a = Array.append a (Array.make (next - capacity) (-1)) in
    b.b_routers <- grow b.b_routers;
    b.b_parents <- grow b.b_parents;
    b.b_links <- grow b.b_links
  end;
  b.b_routers.(b.b_count) <- router;
  b.b_parents.(b.b_count) <- parent;
  b.b_links.(b.b_count) <- link;
  b.b_count <- b.b_count + 1;
  b.b_count - 1

let of_paths ~root ~paths =
  let by_router = Hashtbl.create 256 in
  let b = { b_routers = [||]; b_parents = [||]; b_links = [||]; b_count = 0 } in
  ignore (push b ~router:root ~parent:(-1) ~link:(-1));
  Hashtbl.replace by_router root 0;
  let add_node router ~parent ~link =
    match Hashtbl.find_opt by_router router with
    | Some node ->
        if b.b_parents.(node) <> parent then
          invalid_arg "Tree.of_paths: paths do not form a tree";
        node
    | None ->
        let node = push b ~router ~parent ~link in
        Hashtbl.replace by_router router node;
        node
  in
  let leaf_set = Hashtbl.create 64 in
  let leaf_list = ref [] in
  Array.iter
    (fun path ->
      let nodes = path.Routes.nodes and links = path.Routes.links in
      if Array.length links > 0 then begin
        if nodes.(0) <> root then invalid_arg "Tree.of_paths: path does not start at root";
        let parent = ref 0 in
        for i = 1 to Array.length nodes - 1 do
          parent := add_node nodes.(i) ~parent:!parent ~link:links.(i - 1)
        done;
        if not (Hashtbl.mem leaf_set !parent) then begin
          Hashtbl.replace leaf_set !parent ();
          leaf_list := !parent :: !leaf_list
        end
      end)
    paths;
  let n = b.b_count in
  let routers = Array.sub b.b_routers 0 n in
  let parents = Array.sub b.b_parents 0 n in
  let parent_links = Array.sub b.b_links 0 n in
  let child_lists = Array.make n [] in
  for node = n - 1 downto 1 do
    child_lists.(parents.(node)) <- node :: child_lists.(parents.(node))
  done;
  let children = Array.map Array.of_list child_lists in
  {
    root;
    routers;
    parents;
    parent_links;
    children;
    leaves = Array.of_list (List.rev !leaf_list);
    by_router;
  }

let root t = t.root
let node_count t = Array.length t.routers
let router_of t node = t.routers.(node)
let parent t node = t.parents.(node)
let parent_link t node = t.parent_links.(node)
let children t node = t.children.(node)
let leaves t = Array.copy t.leaves

(* analysis: allow test-only — observation point: tests check every leaf's path *)
let leaf_of_router t router =
  match Hashtbl.find_opt t.by_router router with
  | Some node when Array.exists (( = ) node) t.leaves -> Some node
  | Some _ | None -> None

let physical_links t =
  let out = ref [] in
  for node = node_count t - 1 downto 1 do
    out := t.parent_links.(node) :: !out
  done;
  let array = Array.of_list !out in
  Array.sort Int.compare array;
  array

let path_links_to t node =
  let rec walk node acc =
    if node = 0 then acc else walk t.parents.(node) (t.parent_links.(node) :: acc)
  in
  Array.of_list (walk node [])
