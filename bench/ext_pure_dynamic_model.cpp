// Extension: analytic model for the *pure* data-aware strategies.
//
// The paper's figures show DynamicOuter/DynamicMatrix as
// simulation-only curves. This bench overlays our depletion-cutoff
// estimate (src/analysis/pure_dynamic.hpp) on the measured volumes for
// both kernels, quantifying where the first-order model holds.
#include <iostream>

#include "analysis/pure_dynamic.hpp"
#include "bench/bench_util.hpp"
#include "common/csv.hpp"
#include "platform/platform.hpp"

int bench_main(const hetsched::CliArgs& args) {
  using namespace hetsched;
  const auto reps = args.get_count("reps", 5);
  const std::uint64_t seed = args.get_int("seed", 20140623);
  const auto ps = args.get_count_list("p", {10, 20, 50, 100, 200});
  args.reject_unread();

  bench::print_header("Extension (pure-dynamic model)",
                      "depletion-cutoff estimate vs simulated pure dynamic",
                      "outer n=100 and matmul n=40, speeds U[10,100], reps=" +
                          std::to_string(reps));

  CsvWriter csv(std::cout,
                {"p", "outer.sim", "outer.model", "outer.err_pct",
                 "matmul.sim", "matmul.model", "matmul.err_pct"});

  for (const std::uint32_t p : ps) {
    auto measure = [&](Kernel kernel, const std::string& strategy,
                       std::uint32_t n, double& sim, double& model) {
      ExperimentConfig config;
      config.kernel = kernel;
      config.strategy = strategy;
      config.n = n;
      config.p = p;
      config.seed = seed;
      config.reps = reps;
      const ExperimentResult result = run_experiment(config);
      sim = result.normalized.mean;
      model = 0.0;
      for (const auto& rep : result.reps) {
        const Platform platform(rep.speeds);
        model += kernel == Kernel::kOuter
                     ? pure_dynamic_outer_ratio(platform.relative_speeds(), n)
                     : pure_dynamic_matmul_ratio(platform.relative_speeds(), n);
      }
      model /= static_cast<double>(result.reps.size());
    };

    double outer_sim = 0.0, outer_model = 0.0;
    double mm_sim = 0.0, mm_model = 0.0;
    measure(Kernel::kOuter, "DynamicOuter", 100, outer_sim, outer_model);
    measure(Kernel::kMatmul, "DynamicMatrix", 40, mm_sim, mm_model);
    csv.row(std::vector<double>{
        static_cast<double>(p), outer_sim, outer_model,
        100.0 * (outer_model / outer_sim - 1.0), mm_sim, mm_model,
        100.0 * (mm_model / mm_sim - 1.0)});
  }
  std::cout << "# model = depletion cutoff (worker stalls when its L-shape "
               "holds < 1 unprocessed task)\n";
  return 0;
}
