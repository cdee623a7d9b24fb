type t = {
  node_count : int;
  link_count : int;
  offsets : int array; (* node -> first index into targets/links *)
  targets : int array; (* flattened neighbor lists, 2 * link_count long *)
  links : int array; (* link id parallel to targets *)
  endpoints_lo : int array; (* link -> smaller endpoint *)
  endpoints_hi : int array;
}

module Builder = struct
  type b = {
    mutable nodes : int;
    mutable edges : (int * int) list; (* normalized lo < hi, newest first *)
    mutable edge_count : int;
    seen : (int * int, unit) Hashtbl.t;
  }

  let create n =
    if n < 0 then invalid_arg "Graph.Builder.create: negative node count";
    { nodes = n; edges = []; edge_count = 0; seen = Hashtbl.create 1024 }

  let add_node b =
    let id = b.nodes in
    b.nodes <- id + 1;
    id

  let add_link b u v =
    if u < 0 || u >= b.nodes || v < 0 || v >= b.nodes then
      invalid_arg "Graph.Builder.add_link: node out of range";
    if u <> v then begin
      let key = if u < v then (u, v) else (v, u) in
      if not (Hashtbl.mem b.seen key) then begin
        Hashtbl.replace b.seen key ();
        b.edges <- key :: b.edges;
        b.edge_count <- b.edge_count + 1
      end
    end

end

let build (b : Builder.b) =
  let node_count = b.Builder.nodes in
  let link_count = b.Builder.edge_count in
  let endpoints_lo = Array.make link_count 0 in
  let endpoints_hi = Array.make link_count 0 in
  (* Edges were prepended; index them oldest-first for determinism. *)
  List.iteri
    (fun i (lo, hi) ->
      let link = link_count - 1 - i in
      endpoints_lo.(link) <- lo;
      endpoints_hi.(link) <- hi)
    b.Builder.edges;
  let degrees = Array.make node_count 0 in
  for link = 0 to link_count - 1 do
    degrees.(endpoints_lo.(link)) <- degrees.(endpoints_lo.(link)) + 1;
    degrees.(endpoints_hi.(link)) <- degrees.(endpoints_hi.(link)) + 1
  done;
  let offsets = Array.make (node_count + 1) 0 in
  for node = 0 to node_count - 1 do
    offsets.(node + 1) <- offsets.(node) + degrees.(node)
  done;
  let cursor = Array.copy offsets in
  let targets = Array.make (2 * link_count) 0 in
  let links = Array.make (2 * link_count) 0 in
  for link = 0 to link_count - 1 do
    let u = endpoints_lo.(link) and v = endpoints_hi.(link) in
    targets.(cursor.(u)) <- v;
    links.(cursor.(u)) <- link;
    cursor.(u) <- cursor.(u) + 1;
    targets.(cursor.(v)) <- u;
    links.(cursor.(v)) <- link;
    cursor.(v) <- cursor.(v) + 1
  done;
  { node_count; link_count; offsets; targets; links; endpoints_lo; endpoints_hi }

let node_count t = t.node_count
let link_count t = t.link_count
let degree t node = t.offsets.(node + 1) - t.offsets.(node)

let iter_neighbors t node f =
  for i = t.offsets.(node) to t.offsets.(node + 1) - 1 do
    f ~neighbor:t.targets.(i) ~link:t.links.(i)
  done

(* analysis: allow test-only — observation point: tests check paths link by link *)
let link_endpoints t link = (t.endpoints_lo.(link), t.endpoints_hi.(link))

(* analysis: allow test-only — observation point: tests name links by their endpoints *)
let link_between t u v =
  let found = ref None in
  iter_neighbors t u (fun ~neighbor ~link -> if neighbor = v then found := Some link);
  !found

let end_hosts t =
  let out = ref [] in
  for node = t.node_count - 1 downto 0 do
    if degree t node = 1 then out := node :: !out
  done;
  Array.of_list !out

(* analysis: allow test-only — oracle: tests check every generated topology is connected *)
let is_connected t =
  if t.node_count = 0 then true
  else begin
    let visited = Bytes.make t.node_count '\000' in
    let queue = Queue.create () in
    Queue.add 0 queue;
    Bytes.set visited 0 '\001';
    let reached = ref 1 in
    while not (Queue.is_empty queue) do
      let node = Queue.pop queue in
      iter_neighbors t node (fun ~neighbor ~link:_ ->
          if Bytes.get visited neighbor = '\000' then begin
            Bytes.set visited neighbor '\001';
            incr reached;
            Queue.add neighbor queue
          end)
    done;
    !reached = t.node_count
  end
