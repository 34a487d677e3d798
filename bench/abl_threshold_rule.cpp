// Ablation: how sensitive is DynamicOuter2Phases to the placement of
// the phase switch? Compares the analysis-chosen threshold against the
// empirical best found by sweeping, across several platform sizes —
// quantifying the cost of trusting the ODE model instead of tuning.
#include <cmath>
#include <iostream>

#include "analysis/homogeneous.hpp"
#include "bench/bench_util.hpp"
#include "common/csv.hpp"

int bench_main(const hetsched::CliArgs& args) {
  using namespace hetsched;
  const auto n = args.get_count("n", 100);
  const auto reps = args.get_count("reps", 5);
  const std::uint64_t seed = args.get_int("seed", 20140623);
  const auto ps = args.get_count_list("p", {10, 20, 50, 100});
  args.reject_unread();

  bench::print_header(
      "Ablation", "threshold placement sensitivity for DynamicOuter2Phases",
      "n=" + std::to_string(n) + ", model beta vs swept argmin, reps=" +
          std::to_string(reps));

  CsvWriter csv(std::cout,
                {"p", "beta_model", "ratio_at_model", "beta_best_swept",
                 "ratio_at_best", "regret_pct"});

  for (const std::uint32_t p : ps) {
    const double beta_model = beta_homogeneous_outer(p, n);

    auto measure = [&](double beta) {
      ExperimentConfig config;
      config.kernel = Kernel::kOuter;
      config.strategy = "DynamicOuter2Phases";
      config.n = n;
      config.p = p;
      config.seed = seed;
      config.reps = reps;
      config.phase2_fraction = std::exp(-beta);
      return run_experiment(config).normalized.mean;
    };

    const double at_model = measure(beta_model);
    double best_beta = beta_model;
    double best_value = at_model;
    for (double b = 1.0; b <= 8.0001; b += 0.5) {
      const double v = measure(b);
      if (v < best_value) {
        best_value = v;
        best_beta = b;
      }
    }
    const double regret = 100.0 * (at_model / best_value - 1.0);
    csv.row(std::vector<double>{static_cast<double>(p), beta_model, at_model,
                                best_beta, best_value, regret});
  }
  std::cout << "# regret = extra communication from using the model's beta "
               "instead of the swept optimum\n";
  return 0;
}
