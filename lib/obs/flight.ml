module Ring_buffer = Concilium_util.Ring_buffer

(* Lines are pre-rendered at record time (the Trace/Graph taps hand us
   finished JSONL), so holding the ring costs only the strings themselves
   and dumping is a plain concatenation — cheap enough to keep attached
   for a whole soak and only pay on failure. *)
type t = { ring : string Ring_buffer.t; capacity : int; mutable dropped : int; mutable recorded : int }

let default_capacity = 4096

let create ?(capacity = default_capacity) () =
  { ring = Ring_buffer.create capacity; capacity; dropped = 0; recorded = 0 }

let length t = Ring_buffer.length t.ring
let dropped t = t.dropped
let recorded t = t.recorded

let note t line =
  t.recorded <- t.recorded + 1;
  match Ring_buffer.push t.ring line with
  | None -> ()
  | Some _evicted -> t.dropped <- t.dropped + 1

let attach t collector =
  Trace.set_tap collector.Collector.trace (fun line -> note t line);
  Concilium_provenance.Graph.set_tap collector.Collector.prov (fun line -> note t line)

let dump ~reason t =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    {|{"flight_recorder": {"reason": %s, "entries": %d, "dropped": %d, "capacity": %d}}|}
    (Concilium_util.Json.quote reason) (length t) t.dropped t.capacity;
  Buffer.add_char buf '\n';
  Ring_buffer.fold
    (fun () line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    () t.ring;
  Buffer.contents buf

let write ~path ~reason t =
  let oc = open_out path in
  output_string oc (dump ~reason t);
  close_out oc
