(* Epoch-bucketed bad-interval storage.

   The previous representation kept one unbounded [(start, finish) list ref]
   per link: every recorded failure stayed resident for the whole run and
   point queries scanned a link's entire history. Intervals are now clipped
   onto fixed-width epochs and stored per link as sorted, disjoint,
   non-touching pieces per epoch bucket. Overlapping or touching insertions
   merge eagerly, so a flapping link holds O(distinct bad spans) rather than
   O(recorded events); point queries scan one bucket; and [expire_before]
   drops whole epochs once a long run's window of interest has moved past
   them, which bounds resident memory. Pieces split at epoch boundaries are
   rejoined by the interval-returning queries, so observable behaviour
   matches the old list model (up to normalisation of the returned lists,
   which are now sorted and merged rather than in insertion order). *)

type bucket = { mutable spans : float array; mutable count : int }
(* spans.(2k) / spans.(2k+1) hold piece k's start / finish; pieces are
   sorted by start, pairwise disjoint and non-touching, and clipped to the
   bucket's epoch. *)

type timeline = {
  mutable base : int;  (* epoch index of buckets.(0) *)
  mutable buckets : bucket option array;
}

type t = {
  link_count : int;
  epoch_length : float;
  timelines : timeline option array;
  mutable resident : int;  (* live (start, finish) pieces across all links *)
}

let default_epoch_length = 3600.

let create_with ~epoch_length ~link_count =
  if link_count < 0 then invalid_arg "Link_history.create: negative link count";
  if not (Float.is_finite epoch_length) || epoch_length <= 0. then
    invalid_arg "Link_history.create: epoch length must be positive and finite";
  { link_count; epoch_length; timelines = Array.make link_count None; resident = 0 }

let create ~link_count = create_with ~epoch_length:default_epoch_length ~link_count

(* analysis: allow test-only — memory bound for long runs, with expire_before; nothing expires
   history yet, left for a later change *)
let resident_pieces t = t.resident

let check t link =
  if link < 0 || link >= t.link_count then invalid_arg "Link_history: link out of range"

let epoch_of t time = int_of_float (Float.floor (time /. t.epoch_length))

(* ---------- Bucket maintenance ---------- *)

let bucket_insert t bucket s f =
  let spans = bucket.spans and count = bucket.count in
  (* First piece touching-or-overlapping [s, f] from the left, and the last
     from the right; pieces strictly between them are swallowed. *)
  let lo = ref 0 in
  while !lo < count && spans.((2 * !lo) + 1) < s do incr lo done;
  let hi = ref (count - 1) in
  while !hi >= 0 && spans.(2 * !hi) > f do decr hi done;
  if !lo > !hi then begin
    (* Disjoint from everything: insert at position [lo]. *)
    let needed = 2 * (count + 1) in
    if Array.length spans < needed then begin
      let grown = Array.make (max 8 (2 * needed)) 0. in
      Array.blit spans 0 grown 0 (2 * count);
      bucket.spans <- grown
    end;
    let spans = bucket.spans in
    Array.blit spans (2 * !lo) spans (2 * (!lo + 1)) (2 * (count - !lo));
    spans.(2 * !lo) <- s;
    spans.((2 * !lo) + 1) <- f;
    bucket.count <- count + 1;
    t.resident <- t.resident + 1
  end
  else begin
    let merged_s = min s spans.(2 * !lo) in
    let merged_f = max f spans.((2 * !hi) + 1) in
    spans.(2 * !lo) <- merged_s;
    spans.((2 * !lo) + 1) <- merged_f;
    let swallowed = !hi - !lo in
    if swallowed > 0 then
      Array.blit spans (2 * (!hi + 1)) spans (2 * (!lo + 1)) (2 * (count - !hi - 1));
    bucket.count <- count - swallowed;
    t.resident <- t.resident - swallowed
  end

let timeline_for t link =
  match t.timelines.(link) with
  | Some timeline -> timeline
  | None ->
      let timeline = { base = 0; buckets = [||] } in
      t.timelines.(link) <- Some timeline;
      timeline

(* Bucket for absolute epoch [e], growing the window at either end. *)
let bucket_for timeline e =
  let len = Array.length timeline.buckets in
  if len = 0 then begin
    timeline.base <- e;
    timeline.buckets <- Array.make 1 None
  end
  else if e < timeline.base then begin
    let shift = timeline.base - e in
    let grown = Array.make (max (len + shift) (2 * len)) None in
    Array.blit timeline.buckets 0 grown shift len;
    timeline.buckets <- grown;
    timeline.base <- e
  end
  else if e - timeline.base >= len then begin
    let needed = e - timeline.base + 1 in
    let grown = Array.make (max needed (2 * len)) None in
    Array.blit timeline.buckets 0 grown 0 len;
    timeline.buckets <- grown
  end;
  let slot = e - timeline.base in
  match timeline.buckets.(slot) with
  | Some bucket -> bucket
  | None ->
      let bucket = { spans = [||]; count = 0 } in
      timeline.buckets.(slot) <- Some bucket;
      bucket

(* ---------- Recording ---------- *)

let add_interval t ~link ~start ~finish =
  check t link;
  if Float.is_nan start || Float.is_nan finish then
    invalid_arg "Link_history.add_interval: NaN bound";
  if finish < start then invalid_arg "Link_history.add_interval: negative duration";
  if finish > start then begin
    let timeline = timeline_for t link in
    let e = ref (epoch_of t start) in
    while float_of_int !e *. t.epoch_length < finish do
      let epoch_start = float_of_int !e *. t.epoch_length in
      let epoch_finish = float_of_int (!e + 1) *. t.epoch_length in
      let s = max start epoch_start and f = min finish epoch_finish in
      if f > s then bucket_insert t (bucket_for timeline !e) s f;
      incr e
    done
  end

(* ---------- Point queries ---------- *)

let is_bad_at t ~link ~time =
  check t link;
  match t.timelines.(link) with
  | None -> false
  | Some timeline ->
      let slot = epoch_of t time - timeline.base in
      if slot < 0 || slot >= Array.length timeline.buckets then false
      else begin
        match timeline.buckets.(slot) with
        | None -> false
        | Some bucket ->
            let rec linear k =
              if k >= bucket.count then false
              else if bucket.spans.(2 * k) > time then false
              else if time < bucket.spans.((2 * k) + 1) then true
              else linear (k + 1)
            in
            linear 0
      end

let path_is_good_at t ~links ~time =
  Array.for_all (fun link -> not (is_bad_at t ~link ~time)) links

(* analysis: allow test-only — observation point: tests compare the history with a list model *)
let bad_links_at t ~time =
  let acc = ref [] in
  for link = t.link_count - 1 downto 0 do
    if is_bad_at t ~link ~time then acc := link :: !acc
  done;
  !acc

let bad_fraction_at t ~time ~relevant =
  if Array.length relevant = 0 then 0.
  else begin
    let bad =
      Array.fold_left (fun acc link -> if is_bad_at t ~link ~time then acc + 1 else acc) 0 relevant
    in
    float_of_int bad /. float_of_int (Array.length relevant)
  end

(* ---------- Interval queries ---------- *)

(* Walk a link's pieces in ascending order, rejoining pieces that touch
   (adjacent-epoch halves of one recorded interval, or distinct recordings
   that happen to abut). *)
let fold_pieces t link ~init ~f =
  match t.timelines.(link) with
  | None -> init
  | Some timeline ->
      let acc = ref init in
      Array.iter
        (fun slot ->
          match slot with
          | None -> ()
          | Some bucket ->
              for k = 0 to bucket.count - 1 do
                acc := f !acc bucket.spans.(2 * k) bucket.spans.((2 * k) + 1)
              done)
        timeline.buckets;
      !acc

(* analysis: allow test-only — observation point: tests compare the history with a list model *)
let intervals t ~link =
  check t link;
  let joined =
    fold_pieces t link ~init:[] ~f:(fun acc s f ->
        match acc with
        | (prev_s, prev_f) :: tail when s <= prev_f -> (prev_s, max prev_f f) :: tail
        | _ -> (s, f) :: acc)
  in
  List.rev joined

let merged_intervals t ~link ~horizon =
  check t link;
  let clipped =
    fold_pieces t link ~init:[] ~f:(fun acc s f ->
        let s = max 0. s and f = min horizon f in
        if f <= s then acc
        else begin
          match acc with
          | (prev_s, prev_f) :: tail when s <= prev_f -> (prev_s, max prev_f f) :: tail
          | _ -> (s, f) :: acc
        end)
  in
  List.rev clipped

(* analysis: allow test-only — observation point: tests compare the history with a list model *)
let total_bad_time t ~link ~horizon =
  List.fold_left
    (fun acc (start, finish) -> acc +. (finish -. start))
    0.
    (merged_intervals t ~link ~horizon)

(* ---------- Memory bounding ---------- *)

(* analysis: allow test-only — memory bound for long runs; nothing expires history yet; deleting
   it deletes its tests, left for a later change *)
let expire_before t ~time =
  if Float.is_nan time then invalid_arg "Link_history.expire_before: NaN time";
  let cutoff = epoch_of t time in
  for link = 0 to t.link_count - 1 do
    match t.timelines.(link) with
    | None -> ()
    | Some timeline ->
        let len = Array.length timeline.buckets in
        if len > 0 && timeline.base < cutoff then begin
          let drop = min len (cutoff - timeline.base) in
          for i = 0 to drop - 1 do
            match timeline.buckets.(i) with
            | None -> ()
            | Some bucket -> t.resident <- t.resident - bucket.count
          done;
          if drop >= len then t.timelines.(link) <- None
          else begin
            let kept = Array.make (len - drop) None in
            Array.blit timeline.buckets drop kept 0 (len - drop);
            timeline.buckets <- kept;
            timeline.base <- timeline.base + drop
          end
        end
  done

(* ---------- Replay ---------- *)

let replay t ~engine ~state ~horizon =
  (* Links ascend, so if the engine breaks time ties by insertion order the
     replay stays reproducible. *)
  for link = 0 to t.link_count - 1 do
    List.iter
      (fun (start, finish) ->
        Engine.schedule_at engine ~time:start (fun _ -> Link_state.set_bad state link);
        Engine.schedule_at engine ~time:finish (fun _ -> Link_state.set_good state link))
      (merged_intervals t ~link ~horizon)
  done
