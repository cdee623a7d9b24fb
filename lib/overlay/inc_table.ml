(* Incrementally maintained constrained ("secure") routing tables over a
   ring universe.

   Building one owner's table from the full sorted membership costs
   O(l * v * log n), and under churn every member's table goes stale at
   once, so a rebuild model costs O(n * l * v) work per membership event.
   This module maintains the tables for *every* universe position at once
   and applies single-node deltas on join/leave.

   Two observations make the deltas exact and cheap:

   - Slot (row, col) of owner [o] holds the alive node (excluding [o])
     closest on the ring to the point p = with_digit(o, row, col), among
     nodes sharing p's (row+1)-digit prefix. All candidates and p live in
     one prefix subrange (width <= ring/base), where ring distance equals
     linear distance, so "closest to p" is a 1-D Voronoi choice between p's
     sorted alive neighbours: for adjacent candidates x < y, p prefers x
     exactly when p <= floor((x + y) / 2) — which also encodes the
     smaller-id tie-break.

   - When node [d] joins or leaves, only two kinds of slots change: the
     own-digit slots of positions between d's surviving alive neighbours
     [prev, next] in its subrange, and, in every other digit class of the
     same row, the owners whose point falls in d's Voronoi cell
     (mid(prev, d), mid(d, next)] — a contiguous run of universe positions
     found by binary search. Everything else keeps its previous winner.

   Tables are maintained for dead owners too (their candidate set is just
   "alive \ {owner}" like everyone else's), so a node that rejoins needs no
   own-table rebuild. Only the first [rows] rows — ceil(log_base n) + 1 by
   default, the rows that are ever occupied at density n plus margin — are
   materialised as one flat int array; deeper rows are computed on demand
   with identical semantics. *)

type maintenance = { writes : int; changed : int; owners : int }

type t = {
  ring : Ring.t;
  rows : int;
  slots : int array;  (* (owner * rows + row) * base + col -> position or -1 *)
  stamp : int array;  (* generation marks: distinct-owner counting per event *)
  mutable generation : int;
  mutable events : int;
  mutable total_writes : int;
  mutable total_changed : int;
  mutable total_owners : int;
}

let materialized_rows t = t.rows
let events t = t.events
let total_writes t = t.total_writes
let total_changed t = t.total_changed
let total_owners t = t.total_owners

(* Smallest row count that covers every slot occupied at density n, plus
   one row of margin: row r is occupied only when some other node shares an
   r-digit prefix, which dies out around log_base n. *)
let default_rows n =
  let r = ref 0 and cap = ref 1 in
  while !cap < n && !r < Id.digits do
    incr r;
    cap := !cap * Id.base
  done;
  min Id.digits (max 1 (!r + 1))

let slot_index t ~owner ~row ~col = (((owner * t.rows) + row) * Id.base) + col

(* Voronoi choice: the alive neighbour of [point] that wins slot ownership.
   [below] < point <= [above] as ring positions (-1 = absent). *)
let pick ring point below above =
  if below < 0 then above
  else if above < 0 then below
  else if Id.compare point (Id.midpoint (Ring.id ring below) (Ring.id ring above)) <= 0 then below
  else above

(* ---------- From-scratch slot computation (deep rows + reference) ---------- *)

let compute_entry t ~owner ~row ~col =
  if row < 0 || row >= Id.digits then invalid_arg "Inc_table.compute_entry: row out of range";
  if col < 0 || col >= Id.base then invalid_arg "Inc_table.compute_entry: column out of range";
  let ring = t.ring in
  let owner_id = Ring.id ring owner in
  let point = Id.with_digit owner_id row col in
  let lo, hi = Ring.prefix_range ring point ~digits_shared:(row + 1) in
  if hi <= lo then -1
  else begin
    let x = Ring.insertion_point ring point in
    let below =
      let b = Ring.prev_alive_in ring lo (x - 1) in
      if b = owner then Ring.prev_alive_in ring lo (b - 1) else b
    in
    let above =
      let a = Ring.next_alive_in ring x (hi - 1) in
      if a = owner then Ring.next_alive_in ring (a + 1) (hi - 1) else a
    in
    pick ring point below above
  end

(* Own-digit slots have point = the owner's own id, so the entry is just
   the nearest alive neighbour within the subrange, self excluded. *)
let own_digit_entry t ~s_lo ~s_hi o =
  let ring = t.ring in
  let below = Ring.prev_alive_in ring s_lo (o - 1) in
  let above = Ring.next_alive_in ring (o + 1) (s_hi - 1) in
  pick ring (Ring.id ring o) below above

let entry t ~owner ~row ~col =
  if row < t.rows then t.slots.(slot_index t ~owner ~row ~col)
  else compute_entry t ~owner ~row ~col

(* ---------- Bulk build: one sweep per (row, digit class) ---------- *)

(* Reusable sweep scratch: candidate positions and midpoints sized to the
   widest subrange seen so far, class boundaries fixed at base + 1. One
   record per builder (sequential) or per pool task (parallel). *)
type scratch = {
  mutable cands : int array;
  mutable mids : Id.t array;
  bounds : int array;
}

let make_scratch () =
  { cands = [||]; mids = [||]; bounds = Array.make (Id.base + 1) 0 }

let ensure_scratch s width =
  if Array.length s.cands < width then begin
    let cap = max 16 width in
    s.cands <- Array.make cap 0;
    s.mids <- Array.make cap Id.zero
  end

(* One (group, class-range) unit of the bulk build: digit classes
   [c_lo, c_hi) of the group [g_lo, g_hi) at [row]. Writes only slots
   (owner, row, col) with the owner inside the group and col inside the
   class range — disjoint across units — so units run sequentially or as
   pool tasks interchangeably, producing identical bytes either way.

   O(group) per class (plus sweep-pointer restarts): within one prefix
   subrange the candidate list and its midpoints are shared by every owner
   of the enclosing group, so each class is a merge-style walk with the
   allocation-free [Id.compare_substituted] as the comparison. *)
let build_group t scratch ~row ~g_lo ~g_hi ~c_lo ~c_hi =
  let ring = t.ring in
  let bounds = scratch.bounds in
  (* bounds.(c) = first position in the group whose digit at [row] is
     >= c; the digit is non-decreasing across the sorted group. *)
  bounds.(0) <- g_lo;
  bounds.(Id.base) <- g_hi;
  for c = 1 to Id.base - 1 do
    let a = ref bounds.(c - 1) and b = ref g_hi in
    while !a < !b do
      let mid = (!a + !b) / 2 in
      if Id.digit (Ring.id ring mid) row >= c then b := mid else a := mid + 1
    done;
    bounds.(c) <- !a
  done;
  for c = c_lo to c_hi - 1 do
    let s_lo = bounds.(c) and s_hi = bounds.(c + 1) in
    ensure_scratch scratch (s_hi - s_lo);
    let cands = scratch.cands and mids = scratch.mids in
    (* Alive candidates of the subrange, shared by all 16 classes. *)
    let k = ref 0 in
    let p = ref (Ring.next_alive_in ring s_lo (s_hi - 1)) in
    while !p >= 0 do
      cands.(!k) <- !p;
      incr k;
      p := Ring.next_alive_in ring (!p + 1) (s_hi - 1)
    done;
    let k = !k in
    for i = 0 to k - 2 do
      mids.(i) <- Id.midpoint (Ring.id ring cands.(i)) (Ring.id ring cands.(i + 1))
    done;
    (* Own-digit class: each owner's point is its own id, so the entry
       follows the sweep pointer directly. *)
    let ci = ref 0 in
    for o = s_lo to s_hi - 1 do
      while !ci < k && cands.(!ci) < o do incr ci done;
      let below, above =
        if !ci < k && cands.(!ci) = o then
          ((if !ci > 0 then cands.(!ci - 1) else -1), if !ci + 1 < k then cands.(!ci + 1) else -1)
        else ((if !ci > 0 then cands.(!ci - 1) else -1), if !ci < k then cands.(!ci) else -1)
      in
      t.slots.(slot_index t ~owner:o ~row ~col:c) <- pick ring (Ring.id ring o) below above
    done;
    (* Other digit classes: owner points are order-preserving digit
       substitutions, so each class is one monotone walk over the
       shared midpoints. *)
    if k > 0 then
      for g = 0 to Id.base - 1 do
        if g <> c then begin
          let cls_lo = bounds.(g) and cls_hi = bounds.(g + 1) in
          let ci = ref 0 in
          for o = cls_lo to cls_hi - 1 do
            let oid = Ring.id ring o in
            while
              !ci < k - 1 && Id.compare_substituted oid ~index:row ~digit:c mids.(!ci) > 0
            do
              incr ci
            done;
            t.slots.(slot_index t ~owner:o ~row ~col:c) <- cands.(!ci)
          done
        end
      done
  done

(* Run every group whose start position falls in [p_lo, p_hi) at [row]
   through [build_group] (all classes). Group boundaries are rediscovered
   from the ring, so any position partition that aligns task edges to
   multiples of [n / tasks] covers each group exactly once. *)
let build_groups_in t scratch ~row ~p_lo ~p_hi =
  let ring = t.ring in
  let g_lo =
    ref
      (let lo, hi = Ring.prefix_range ring (Ring.id ring p_lo) ~digits_shared:row in
       if lo < p_lo then hi else lo)
  in
  while !g_lo < p_hi do
    let _, g_hi = Ring.prefix_range ring (Ring.id ring !g_lo) ~digits_shared:row in
    build_group t scratch ~row ~g_lo:!g_lo ~g_hi ~c_lo:0 ~c_hi:Id.base;
    g_lo := g_hi
  done

(* Task plan for one parallel build. Both shapes write disjoint slot
   regions: position ranges partition each row's groups by start position,
   and class slices of one group write disjoint columns. *)
type build_task =
  | Range of { row : int; p_lo : int; p_hi : int }
      (** every group starting in [p_lo, p_hi), all classes *)
  | Classes of { row : int; g_lo : int; g_hi : int; c_lo : int; c_hi : int }
      (** one group, classes [c_lo, c_hi) *)

(* Decompose the build into tasks. Slot values are pure functions of the
   ring, so — unlike the experiment drivers' shard counts — the task shape
   here MAY depend on the domain count without breaking byte-identity:
   every decomposition writes the same values to the same cells. Rows with
   at least a few groups per domain split by position (group-aligned);
   shallow rows (row 0 has one group spanning the whole ring) split each
   group by digit class so they parallelize too. *)
let plan_tasks ring ~rows ~domains =
  let n = Ring.size ring in
  let target = 2 * domains in
  let tasks = ref [] in
  for row = 0 to rows - 1 do
    (* Upper bound on this row's group count: base^row, saturating. *)
    let groups_cap = ref 1 in
    for _ = 1 to row do
      if !groups_cap <= target then groups_cap := !groups_cap * Id.base
    done;
    if !groups_cap > target && n > target then begin
      let pieces = 2 * target in
      for k = pieces - 1 downto 0 do
        let p_lo = k * n / pieces and p_hi = (k + 1) * n / pieces in
        if p_hi > p_lo then tasks := Range { row; p_lo; p_hi } :: !tasks
      done
    end
    else begin
      (* Few groups: enumerate them and slice each by digit class. *)
      let g_lo = ref 0 in
      while !g_lo < n do
        let _, g_hi = Ring.prefix_range ring (Ring.id ring !g_lo) ~digits_shared:row in
        for c = Id.base - 1 downto 0 do
          tasks := Classes { row; g_lo = !g_lo; g_hi; c_lo = c; c_hi = c + 1 } :: !tasks
        done;
        g_lo := g_hi
      done
    end
  done;
  Array.of_list !tasks

let run_task t scratch = function
  | Range { row; p_lo; p_hi } -> build_groups_in t scratch ~row ~p_lo ~p_hi
  | Classes { row; g_lo; g_hi; c_lo; c_hi } ->
      build_group t scratch ~row ~g_lo ~g_hi ~c_lo ~c_hi

let build ?pool ?rows ring =
  let module Pool = Concilium_util.Pool in
  let n = Ring.size ring in
  let rows =
    match rows with
    | None -> default_rows n
    | Some r ->
        if r < 1 || r > Id.digits then invalid_arg "Inc_table.build: rows out of range";
        r
  in
  let t =
    {
      ring;
      rows;
      slots = Array.make (max 1 (n * rows * Id.base)) (-1);
      stamp = Array.make (max 1 n) (-1);
      generation = 0;
      events = 0;
      total_writes = 0;
      total_changed = 0;
      total_owners = 0;
    }
  in
  let domains = match pool with None -> 1 | Some p -> Pool.domain_count p in
  if n = 0 then t
  else if domains <= 1 then begin
    let scratch = make_scratch () in
    for row = 0 to rows - 1 do
      build_groups_in t scratch ~row ~p_lo:0 ~p_hi:n
    done;
    t
  end
  else begin
    let tasks = plan_tasks ring ~rows ~domains in
    ignore
      (Pool.parallel_map ?pool tasks ~f:(fun task ->
           let scratch = make_scratch () in
           (* analysis: allow pool-shared-write — build tasks write disjoint
              (owner, row, col) slot regions of the fresh table (see
              [build_task]); no cell is ever written by two tasks. *)
           run_task t scratch task));
    t
  end

(* ---------- Incremental maintenance ---------- *)

(* Shared delta driver. [node] has just changed liveness (the ring bit is
   already flipped). Per materialised row: recompute the own-digit slots of
   the neighbourhood [prev..next] (the only positions whose nearest alive
   neighbour can have changed), then reassign node's Voronoi cell
   (mid(prev, node), mid(node, next)] in each other digit class — to [node]
   on join, to the surviving neighbour on leave. *)
let update_for_node t node ~joined =
  let ring = t.ring in
  let node_id = Ring.id ring node in
  let writes = ref 0 and changed = ref 0 and owners = ref 0 in
  t.generation <- t.generation + 1;
  let generation = t.generation in
  let write ~owner ~row ~col value =
    let i = slot_index t ~owner ~row ~col in
    incr writes;
    if t.slots.(i) <> value then begin
      t.slots.(i) <- value;
      incr changed;
      if t.stamp.(owner) <> generation then begin
        t.stamp.(owner) <- generation;
        incr owners
      end
    end
  in
  for row = 0 to t.rows - 1 do
    let c = Id.digit node_id row in
    let s_lo, s_hi = Ring.prefix_range ring node_id ~digits_shared:(row + 1) in
    let prev = Ring.prev_alive_in ring s_lo (node - 1) in
    let next = Ring.next_alive_in ring (node + 1) (s_hi - 1) in
    (* (a) own-digit class. *)
    let a_lo = if prev >= 0 then prev else s_lo in
    let a_hi = if next >= 0 then next else s_hi - 1 in
    for o = a_lo to a_hi do
      write ~owner:o ~row ~col:c (own_digit_entry t ~s_lo ~s_hi o)
    done;
    (* (b) every other digit class of the enclosing group. *)
    let g_lo, g_hi = Ring.prefix_range ring node_id ~digits_shared:row in
    let lo_key = if prev >= 0 then Id.midpoint (Ring.id ring prev) node_id else Id.zero in
    let hi_key = if next >= 0 then Id.midpoint node_id (Ring.id ring next) else Id.zero in
    let mid_pn =
      if prev >= 0 && next >= 0 then Id.midpoint (Ring.id ring prev) (Ring.id ring next)
      else Id.zero
    in
    (* First position in [lo, hi) whose digit at [row] is >= d. *)
    let digit_bound lo hi d =
      let a = ref lo and b = ref hi in
      while !a < !b do
        let mid = (!a + !b) / 2 in
        if Id.digit (Ring.id ring mid) row >= d then b := mid else a := mid + 1
      done;
      !a
    in
    (* First position in [lo, hi) whose id is > key. *)
    let id_upper lo hi key =
      let a = ref lo and b = ref hi in
      while !a < !b do
        let mid = (!a + !b) / 2 in
        if Id.compare (Ring.id ring mid) key <= 0 then a := mid + 1 else b := mid
      done;
      !a
    in
    for g = 0 to Id.base - 1 do
      if g <> c then begin
        let cls_lo = digit_bound g_lo g_hi g in
        let cls_hi = digit_bound cls_lo g_hi (g + 1) in
        if cls_hi > cls_lo then begin
          let o_start =
            if prev < 0 then cls_lo else id_upper cls_lo cls_hi (Id.with_digit lo_key row g)
          in
          let o_end =
            if next < 0 then cls_hi else id_upper cls_lo cls_hi (Id.with_digit hi_key row g)
          in
          for o = o_start to o_end - 1 do
            let value =
              if joined then node
              else if prev < 0 then next
              else if next < 0 then prev
              else if
                Id.compare_substituted (Ring.id ring o) ~index:row ~digit:c mid_pn <= 0
              then prev
              else next
            in
            write ~owner:o ~row ~col:c value
          done
        end
      end
    done
  done;
  t.events <- t.events + 1;
  t.total_writes <- t.total_writes + !writes;
  t.total_changed <- t.total_changed + !changed;
  t.total_owners <- t.total_owners + !owners;
  { writes = !writes; changed = !changed; owners = !owners }

let apply_leave t node =
  if not (Ring.is_alive t.ring node) then invalid_arg "Inc_table.apply_leave: node is dead";
  Ring.set_dead t.ring node;
  update_for_node t node ~joined:false

let apply_join t node =
  if Ring.is_alive t.ring node then invalid_arg "Inc_table.apply_join: node is alive";
  Ring.set_alive t.ring node;
  update_for_node t node ~joined:true

(* Per-owner rebuild through the from-scratch path — the comparator the
   scale bench prices incremental maintenance against, and a repair tool.
   Returns how many slots disagreed (0 when the table was consistent). *)
let rebuild_owner t owner =
  let disagreed = ref 0 in
  for row = 0 to t.rows - 1 do
    for col = 0 to Id.base - 1 do
      let v = compute_entry t ~owner ~row ~col in
      let i = slot_index t ~owner ~row ~col in
      if t.slots.(i) <> v then begin
        incr disagreed;
        t.slots.(i) <- v
      end
    done
  done;
  !disagreed

let checksum t =
  let h = ref (Concilium_util.Hashing.fnv1a "inc-table") in
  Array.iter (fun v -> h := Concilium_util.Hashing.fnv1a_int !h (Int64.of_int v)) t.slots;
  !h

(* ---------- Pastry-style routing over the flat table ---------- *)

let numerically_closest t key =
  let ring = t.ring in
  let n = Ring.size ring in
  if Ring.alive_count ring = 0 then -1
  else begin
    let x = Ring.insertion_point ring key in
    let above = Ring.next_alive_cyclic_from ring (if x >= n then 0 else x) in
    let below =
      let b = Ring.prev_alive_in ring 0 (x - 1) in
      if b >= 0 then b else Ring.prev_alive_in ring x (n - 1)
    in
    if above < 0 then below
    else if below < 0 || above = below then above
    else begin
      let da = Id.ring_distance (Ring.id ring above) key in
      let db = Id.ring_distance (Ring.id ring below) key in
      let cmp = Id.compare db da in
      if cmp < 0 then below
      else if cmp > 0 then above
      else if Id.compare (Ring.id ring below) (Ring.id ring above) <= 0 then below
      else above
    end
  end

(* Leaf-set view of an alive node: scan up to [leaf_half] alive neighbours
   on each side. Returns the closest member to [dest] (self included) and
   whether the leaf set covers [dest]'s ring segment. *)
let leaf_decision t ~leaf_half here dest =
  let ring = t.ring in
  let here_id = Ring.id ring here in
  let best = ref here and best_d = ref (Id.ring_distance here_id dest) in
  let consider p =
    let d = Id.ring_distance (Ring.id ring p) dest in
    let cmp = Id.compare d !best_d in
    if cmp < 0 || (cmp = 0 && Id.compare (Ring.id ring p) (Ring.id ring !best) < 0) then begin
      best := p;
      best_d := d
    end
  in
  let cw_far = ref here and ccw_far = ref here in
  let p = ref here and steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < leaf_half do
    let q = Ring.next_alive_cyclic ring !p in
    if q < 0 || q = here then continue := false
    else begin
      consider q;
      cw_far := q;
      p := q;
      incr steps
    end
  done;
  let p = ref here and steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < leaf_half do
    let q = Ring.prev_alive_cyclic ring !p in
    if q < 0 || q = here then continue := false
    else begin
      consider q;
      ccw_far := q;
      p := q;
      incr steps
    end
  done;
  let covers =
    let lo = Ring.id ring !ccw_far and hi = Ring.id ring !cw_far in
    Id.equal dest hi || Id.equal dest lo || Id.in_clockwise_interval dest ~lo ~hi
    || Id.equal lo hi
  in
  (covers, !best)

let next_hop t ~leaf_half ~here ~dest =
  let ring = t.ring in
  let here_id = Ring.id ring here in
  if Id.equal here_id dest then None
  else begin
    let covers, closest = leaf_decision t ~leaf_half here dest in
    if covers then if closest = here then None else Some closest
    else begin
      let row = Id.shared_prefix_length here_id dest in
      let col = Id.digit dest row in
      let e = entry t ~owner:here ~row ~col in
      if e >= 0 then Some e
      else begin
        (* Fallback (paper Section 2's "rare case"): any known node — the
           closest leaf member or a materialised table entry — that shares
           at least as long a prefix with the key and makes strict
           numerical progress. *)
        let d_here = Id.ring_distance here_id dest in
        let best = ref (-1) and best_d = ref d_here in
        let consider p =
          if p >= 0 && p <> here then begin
            let pid = Ring.id ring p in
            if Id.shared_prefix_length pid dest >= row then begin
              let d = Id.ring_distance pid dest in
              if Id.compare d !best_d < 0 then begin
                best := p;
                best_d := d
              end
            end
          end
        in
        consider closest;
        for r = 0 to t.rows - 1 do
          for cc = 0 to Id.base - 1 do
            consider t.slots.(slot_index t ~owner:here ~row:r ~col:cc)
          done
        done;
        if !best >= 0 then Some !best else None
      end
    end
  end

(* Greedy route from [src] toward [dest]'s root. Returns (final position,
   hop count); the hop digest lets transcripts compare runs exactly. *)
let route t ~leaf_half ~src ~dest =
  let limit = (2 * Id.digits) + (4 * leaf_half) in
  let here = ref src and hops = ref 0 in
  let digest = ref (Concilium_util.Hashing.fnv1a_int (Concilium_util.Hashing.fnv1a "route") (Int64.of_int src)) in
  let continue = ref true in
  while !continue && !hops < limit do
    match next_hop t ~leaf_half ~here:!here ~dest with
    | None -> continue := false
    | Some p ->
        here := p;
        incr hops;
        digest := Concilium_util.Hashing.fnv1a_int !digest (Int64.of_int p)
  done;
  (!here, !hops, !digest)
