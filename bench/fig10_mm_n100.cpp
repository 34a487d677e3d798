// Figure 10: all matrix-multiplication strategies plus the analysis
// curve, matrices of N/l = 100 blocks (10^6 tasks). The points are
// bench/figures/fig10.hspec; --n, --p, --reps and --seed override it.
#include "bench/bench_util.hpp"

int bench_main(const hetsched::CliArgs& args) {
  using namespace hetsched;
  const ScenarioSpec spec = bench::load_figure_spec("fig10", args);
  const std::uint64_t n = spec.ns.front();

  bench::print_header("Figure 10",
                      "matrix multiplication, large matrices",
                      "n=" + std::to_string(n) + " blocks (" +
                          std::to_string(n * n * n) +
                          " tasks), reps=" + std::to_string(*spec.reps));

  const auto points =
      pivot_sweep(compile_campaign(spec).run(), SweepAxis::kWorkers, true);
  print_sweep_csv(points, "p", std::cout);
  return 0;
}
