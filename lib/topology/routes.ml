type path = { nodes : int array; links : int array }

let hop_count p = Array.length p.links

let shortest_paths graph ~source ~targets =
  let n = Graph.node_count graph in
  let parent_node = Array.make n (-1) in
  let parent_link = Array.make n (-1) in
  let visited = Bytes.make n '\000' in
  let queue = Queue.create () in
  Bytes.set visited source '\001';
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let node = Queue.pop queue in
    Graph.iter_neighbors graph node (fun ~neighbor ~link ->
        if Bytes.get visited neighbor = '\000' then begin
          Bytes.set visited neighbor '\001';
          parent_node.(neighbor) <- node;
          parent_link.(neighbor) <- link;
          Queue.add neighbor queue
        end)
  done;
  let extract target =
    if Bytes.get visited target = '\000' then None
    else begin
      let rec walk node nodes links =
        if node = source then (node :: nodes, links)
        else walk parent_node.(node) (node :: nodes) (parent_link.(node) :: links)
      in
      let nodes, links = walk target [] [] in
      Some { nodes = Array.of_list nodes; links = Array.of_list links }
    end
  in
  Array.map extract targets

let shortest_path graph ~source ~target =
  (shortest_paths graph ~source ~targets:[| target |]).(0)

(* analysis: allow test-only — nothing calls it yet; deleting it deletes its test, left for a
   later change *)
let link_depth_fraction p i =
  let count = hop_count p in
  if i < 0 || i >= count then invalid_arg "Routes.link_depth_fraction: index out of range";
  if count = 1 then 0.5 else float_of_int i /. float_of_int (count - 1)
