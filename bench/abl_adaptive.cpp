// Ablation: self-tuning switch vs model-tuned switch. AdaptiveOuter
// decides the phase switch online from observed marginal efficiency —
// no beta, no ODE, no speeds, no problem size — and is compared against
// the analysis-tuned DynamicOuter2Phases, pure DynamicOuter and
// RandomOuter across worker counts.
#include <iostream>

#include "bench/bench_util.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"

int bench_main(const hetsched::CliArgs& args) {
  using namespace hetsched;
  const auto n = args.get_count("n", 100);
  const auto reps = args.get_count("reps", 10);
  const std::uint64_t seed = args.get_int("seed", 20140623);
  const auto ps = args.get_count_list("p", {10, 20, 50, 100, 200});
  const auto n_mm = args.get_count("n-mm", 40);
  args.reject_unread();

  bench::print_header(
      "Ablation (adaptive)", "online efficiency-based switch vs model beta",
      "outer product, n=" + std::to_string(n) + ", threshold 1.5 "
          "tasks/step, reps=" + std::to_string(reps));

  const auto experiment = [&](Kernel kernel, const std::string& strategy,
                              std::uint32_t size, std::uint32_t p) {
    ExperimentConfig config;
    config.kernel = kernel;
    config.strategy = strategy;
    config.n = size;
    config.p = p;
    config.reps = reps;
    config.seed = seed;
    return config;
  };
  // The adaptive series, rep by rep on run_experiment's seeds and draws.
  const auto adaptive = [&](const ExperimentConfig& config) {
    RunningStats stats;
    for (std::uint32_t r = 0; r < reps; ++r) {
      stats.push(
          run_single(config, derive_stream(seed, "rep." + std::to_string(r)))
              .normalized);
    }
    return stats;
  };

  CsvWriter csv(std::cout,
                {"p", "Adaptive.mean", "Adaptive.sd", "Tuned2Phases.mean",
                 "DynamicOuter.mean", "RandomOuter.mean",
                 "adaptive_vs_tuned_pct"});
  for (const std::uint32_t p : ps) {
    const RunningStats stats =
        adaptive(experiment(Kernel::kOuter, "AdaptiveOuter", n, p));
    const auto reference = [&](const std::string& name) {
      return run_experiment(experiment(Kernel::kOuter, name, n, p))
          .normalized.mean;
    };
    const double tuned = reference("DynamicOuter2Phases");
    csv.row(std::vector<double>{
        static_cast<double>(p), stats.mean(), stats.stddev(), tuned,
        reference("DynamicOuter"), reference("RandomOuter"),
        100.0 * (stats.mean() / tuned - 1.0)});
  }
  std::cout << "# adaptive needs no beta / model / speeds / problem size\n";

  // Matmul counterpart (blocks-per-task threshold 2.5), n = --n-mm.
  std::cout << "\n# matmul: AdaptiveMatmul vs tuned DynamicMatrix2Phases, n="
            << n_mm << "\n";
  CsvWriter mm_csv(std::cout, {"p", "Adaptive.mean", "Tuned2Phases.mean",
                               "adaptive_vs_tuned_pct"});
  for (const std::uint32_t p : {20u, 50u, 100u}) {
    const double mean =
        adaptive(experiment(Kernel::kMatmul, "AdaptiveMatmul", n_mm, p))
            .mean();
    const double tuned =
        run_experiment(
            experiment(Kernel::kMatmul, "DynamicMatrix2Phases", n_mm, p))
            .normalized.mean;
    mm_csv.row(std::vector<double>{static_cast<double>(p), mean, tuned,
                                   100.0 * (mean / tuned - 1.0)});
  }
  return 0;
}
