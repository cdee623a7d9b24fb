type t = {
  cadence : float;
  mutable samples : (int * Metrics.t) list; (* newest first *)
}

let create ~cadence =
  if not (cadence > 0.) then invalid_arg "Timeseries.create: cadence must be positive";
  { cadence; samples = [] }

let cadence t = t.cadence

let record t ~epoch metrics =
  (* Deep-copy so the live registry can keep mutating after the snapshot. *)
  t.samples <- (epoch, Metrics.copy metrics) :: t.samples

let sample t ~time metrics = record t ~epoch:(int_of_float (Float.floor (time /. t.cadence))) metrics

let samples t = List.rev t.samples

let merge shards =
  if Array.length shards = 0 then invalid_arg "Timeseries.merge: no shards";
  let cadence = shards.(0).cadence in
  Array.iter
    (fun shard ->
      if shard.cadence <> cadence then invalid_arg "Timeseries.merge: cadence mismatch")
    shards;
  let epochs = Hashtbl.create 64 in
  Array.iter
    (fun shard ->
      List.iter
        (fun (epoch, metrics) ->
          (* Per-epoch lists collect in shard order, then sample order
             within the shard, so the fold below is deterministic. *)
          let existing = try Hashtbl.find epochs epoch with Not_found -> [] in
          Hashtbl.replace epochs epoch (metrics :: existing))
        (samples shard))
    shards;
  let out = create ~cadence in
  Hashtbl.fold (fun epoch _ acc -> epoch :: acc) epochs []
  |> List.sort_uniq Int.compare
  |> List.iter (fun epoch ->
         let shards_at = Array.of_list (List.rev (Hashtbl.find epochs epoch)) in
         out.samples <- (epoch, Metrics.merge shards_at) :: out.samples);
  out

let jsonl t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (epoch, metrics) ->
      Printf.bprintf buf {|{"epoch": %d, "time": %.6f, %s}|} epoch
        (float_of_int epoch *. t.cadence)
        (Metrics.snapshot_fields metrics);
      Buffer.add_char buf '\n')
    (samples t);
  Buffer.contents buf
