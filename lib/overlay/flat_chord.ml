(* Chord routing over a {!Ring} universe without per-node stored state.

   A Chord node's successors are "the next k alive positions clockwise" and
   its finger [k] is "the first alive node at or after id + 2^k" — both
   answerable directly from the sorted universe plus the alive bitset, in
   O(log n) per question. Materialising them per node would cost O(n log n)
   memory and need repair on every churn event; deriving them on demand
   makes churn maintenance free (a bitset flip) while routing stays the
   textbook greedy descent: jump to the closest known predecessor of the
   key, halving the remaining clockwise distance each hop. *)

type t = { ring : Ring.t }

let create ring = { ring }

(* First alive node at or after [key] clockwise — the key's owner. *)
let owner_of_key t key =
  let ring = t.ring in
  Ring.next_alive_cyclic_from ring (Ring.insertion_point ring key)

let next_hop t ~here ~dest =
  let ring = t.ring in
  let owner = owner_of_key t dest in
  if owner < 0 || owner = here then None
  else begin
    let here_id = Ring.id ring here in
    let succ = Ring.next_alive_cyclic ring here in
    if succ < 0 then None
    else if succ = owner then Some succ
    else begin
      (* Finger descent: the highest power-of-two jump that stays within
         (here, dest] clockwise. Each hop at least halves the remaining
         clockwise distance, so routes take O(log n) hops. *)
      let to_dest = Id.clockwise_distance here_id dest in
      let hop = ref (-1) in
      let k = ref (Id.floor_log2 to_dest) in
      while !hop < 0 && !k >= 0 do
        let target = Id.add_power_of_two here_id !k in
        let cand = Ring.next_alive_cyclic_from ring (Ring.insertion_point ring target) in
        if cand >= 0 && cand <> here then begin
          let to_cand = Id.clockwise_distance here_id (Ring.id ring cand) in
          if Id.compare to_cand to_dest <= 0 && Id.compare to_cand Id.zero > 0 then hop := cand
        end;
        decr k
      done;
      if !hop >= 0 then Some !hop else Some succ
    end
  end

(* Greedy route from [src] to the key's owner. Returns (final position,
   hop count, FNV digest of the hop sequence). *)
let route t ~src ~dest =
  let limit = 192 in
  let here = ref src and hops = ref 0 in
  let digest =
    ref
      (Concilium_util.Hashing.fnv1a_int
         (Concilium_util.Hashing.fnv1a "chord-route")
         (Int64.of_int src))
  in
  let continue = ref true in
  while !continue && !hops < limit do
    match next_hop t ~here:!here ~dest with
    | None -> continue := false
    | Some p ->
        here := p;
        incr hops;
        digest := Concilium_util.Hashing.fnv1a_int !digest (Int64.of_int p)
  done;
  (!here, !hops, !digest)
