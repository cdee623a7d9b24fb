(* Canary mutations: small synthetic source files injected into the scanned
   tree by [--inject-bug] to prove the detectors catch real races, layer
   violations and per-file rule hits.  Each canary carries the rule it must
   trip; CI runs every canary expecting a non-zero exit, so a detector
   regression turns the build red. *)

type canary = {
  c_name : string;
  c_path : string;  (* virtual path, placed to land in the right library *)
  c_rule : string;  (* the rule the canary must trigger *)
  c_source : string;
}

let canaries =
  [
    {
      c_name = "shard-table-write";
      c_path = "lib/experiments/canary_shard_table.ml";
      c_rule = "pool-shared-write";
      c_source =
        {|module Pool = Concilium_util.Pool

let shared_counts : (int, int) Hashtbl.t = Hashtbl.create 64

let run ?pool () =
  Pool.parallel_init ?pool 8 ~f:(fun shard ->
      let hits = shard * 3 in
      Hashtbl.replace shared_counts shard hits;
      hits)
|};
    };
    {
      c_name = "unsplit-prng";
      c_path = "lib/experiments/canary_unsplit_prng.ml";
      c_rule = "pool-unsplit-prng";
      c_source =
        {|module Pool = Concilium_util.Pool
module Prng = Concilium_util.Prng

let run ?pool () =
  let rng = Prng.of_seed 42L in
  Pool.parallel_init ?pool 8 ~f:(fun shard ->
      let jitter = Prng.float rng 1.0 in
      jitter +. float_of_int shard)
|};
    };
    {
      c_name = "task-io";
      c_path = "lib/experiments/canary_task_io.ml";
      c_rule = "pool-io";
      c_source =
        {|module Pool = Concilium_util.Pool

let run ?pool () =
  Pool.parallel_init ?pool 4 ~f:(fun shard ->
      Printf.printf "shard %d\n" shard;
      shard)
|};
    };
    {
      c_name = "layer-back-edge";
      c_path = "lib/util/canary_layer.ml";
      c_rule = "layer-back-edge";
      c_source =
        {|let upward_reference () = Concilium_core.Scenario.default
|};
    };
    {
      c_name = "wall-clock-in-lib";
      c_path = "lib/netsim/canary_wall_clock.ml";
      c_rule = "wall-clock";
      c_source = {|let stamp () = Unix.gettimeofday ()
|};
    };
  ]

let names = List.map (fun c -> c.c_name) canaries
let find name = List.find_opt (fun c -> c.c_name = name) canaries
