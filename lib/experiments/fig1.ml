module Id = Concilium_overlay.Id
module Jump_table_model = Concilium_overlay.Jump_table_model
module Poisson_binomial = Concilium_stats.Poisson_binomial
module Descriptive = Concilium_stats.Descriptive
module Prng = Concilium_util.Prng
module Pool = Concilium_util.Pool

type point = {
  n : int;
  analytic_mean : float;
  analytic_std : float;
  monte_carlo_mean : float;
  monte_carlo_std : float;
}

let default_sizes = [| 128; 256; 512; 1024; 2048; 4096; 8192; 16384; 32768; 65536 |]

let run ?pool ~seed ~sizes ~trials () =
  let rng = Prng.of_seed seed in
  let slots = float_of_int (Id.digits * Id.base) in
  let size_count = Array.length sizes in
  (* One independent stream per (size, trial), split before dispatch so each
     Monte Carlo overlay is identical for any domain count; flattening the
     pairs balances the load (large sizes dominate a per-size split). *)
  let samples =
    Pool.parallel_init_rng ?pool (size_count * trials) ~rng ~f:(fun task rng ->
        let n = sizes.(task / trials) in
        let occupancy = Jump_table_model.monte_carlo_occupancy ~rng ~n ~trials:1 in
        occupancy.(0))
  in
  let models = Pool.parallel_map ?pool sizes ~f:(fun n -> Jump_table_model.model ~n) in
  List.init size_count (fun index ->
      let model = models.(index) in
      let summary = Descriptive.summarize (Array.sub samples (index * trials) trials) in
      {
        n = sizes.(index);
        analytic_mean = model.Poisson_binomial.mu_phi /. slots;
        analytic_std = model.Poisson_binomial.sigma_phi /. slots;
        monte_carlo_mean = summary.Descriptive.mean;
        monte_carlo_std = summary.Descriptive.stddev;
      })

let table points =
  {
    Output.title = "Figure 1: jump-table occupancy, analytic model vs Monte Carlo";
    header = [ "N"; "model mean"; "model std"; "MC mean"; "MC std" ];
    rows =
      List.map
        (fun p ->
          [
            Output.cell_i p.n;
            Output.cell_f p.analytic_mean;
            Output.cell_f p.analytic_std;
            Output.cell_f p.monte_carlo_mean;
            Output.cell_f p.monte_carlo_std;
          ])
        points;
  }
