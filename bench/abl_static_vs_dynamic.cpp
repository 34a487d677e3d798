// Ablation: the best known *static* allocation (column-based rectangle
// partition, a 7/4-approximation requiring full knowledge of the
// speeds, Section 3.2) versus the paper's speed-agnostic dynamic
// strategies. Shows what the dynamic schedulers give up — and that the
// two-phase scheduler closes most of the gap without knowing speeds.
#include <iostream>

#include "bench/bench_util.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"
#include "platform/platform.hpp"
#include "static_part/column_partition.hpp"

int bench_main(const hetsched::CliArgs& args) {
  using namespace hetsched;
  const auto n = args.get_count("n", 100);
  const auto reps = args.get_count("reps", 10);
  const std::uint64_t seed = args.get_int("seed", 20140623);
  const auto ps = args.get_count_list("p", {10, 20, 50, 100, 200});
  args.reject_unread();

  bench::print_header(
      "Ablation", "static 7/4-approximation vs dynamic strategies",
      "outer product, n=" + std::to_string(n) + ", speeds U[10,100], reps=" +
          std::to_string(reps));

  CsvWriter csv(std::cout, {"p", "Static74.mean", "DynamicOuter2Phases.mean",
                            "DynamicOuter.mean", "RandomOuter.mean"});

  for (const std::uint32_t p : ps) {
    auto dynamic = [&](const std::string& name) {
      ExperimentConfig config;
      config.kernel = Kernel::kOuter;
      config.strategy = name;
      config.n = n;
      config.p = p;
      config.seed = seed;
      config.reps = reps;
      return run_experiment(config);
    };
    const ExperimentResult two_phase = dynamic("DynamicOuter2Phases");
    // Static ratio averaged over the same speed draws the experiments
    // use (it is deterministic given the draw).
    RunningStats static_ratio;
    for (const RepOutcome& rep : two_phase.reps) {
      static_ratio.push(
          static_outer_ratio(Platform(rep.speeds).relative_speeds()));
    }

    csv.row(std::vector<double>{
        static_cast<double>(p), static_ratio.mean(),
        two_phase.normalized.mean, dynamic("DynamicOuter").normalized.mean,
        dynamic("RandomOuter").normalized.mean});
  }
  std::cout << "# static needs exact speeds; dynamic strategies are "
               "speed-agnostic\n";
  return 0;
}
