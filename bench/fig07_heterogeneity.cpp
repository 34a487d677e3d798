// Figure 7: behaviour of the outer-product heuristics for different
// degrees of heterogeneity h — speeds uniform in [100-h, 100+h] — with
// p = 20 workers and N/l = 100 blocks.
#include "bench/bench_util.hpp"

int bench_main(const hetsched::CliArgs& args) {
  using namespace hetsched;
  const auto n = args.get_count("n", 100);
  const auto p = args.get_count("p", 20);
  const auto reps = args.get_count("reps", 10);
  const std::uint64_t seed = args.get_int("seed", 20140623);
  args.reject_unread();

  bench::print_header("Figure 7",
                      "outer product vs heterogeneity degree",
                      "speeds U[100-h,100+h], p=" + std::to_string(p) + ", n=" +
                          std::to_string(n) + ", reps=" + std::to_string(reps));

  const std::vector<double> hs{0.0, 20.0, 40.0, 60.0, 80.0, 95.0};
  const std::vector<std::string> strategies{
      "DynamicOuter2Phases", "DynamicOuter", "RandomOuter", "SortedOuter"};

  std::vector<SweepPoint> points;
  for (const double h : hs) {
    SweepPoint point;
    point.x = h;
    const Scenario scenario = heterogeneity_scenario(h);
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
  print_sweep_csv(points, "heterogeneity", std::cout);
  return 0;
}
