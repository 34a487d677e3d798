// Figure 4: all outer-product strategies plus the analysis curve,
// vectors of N/l = 100 blocks ((N/l)^2 = 10,000 tasks). The points are
// bench/figures/fig04.hspec; --n, --p, --reps and --seed override it.
#include "bench/bench_util.hpp"

int bench_main(const hetsched::CliArgs& args) {
  using namespace hetsched;
  const ScenarioSpec spec = bench::load_figure_spec("fig04", args);

  bench::print_header("Figure 4",
                      "outer product, all strategies + analysis",
                      "n=" + std::to_string(spec.ns.front()) +
                          " blocks, speeds U[10,100], beta from homogeneous "
                          "analysis, reps=" +
                          std::to_string(*spec.reps));

  const auto points =
      pivot_sweep(compile_campaign(spec).run(), SweepAxis::kWorkers, true);
  print_sweep_csv(points, "p", std::cout);
  return 0;
}
