// Figure 9: all matrix-multiplication strategies plus the analysis
// curve, matrices of N/l = 40 blocks (64,000 tasks). The points are
// bench/figures/fig09.hspec; --n, --p, --reps and --seed override it.
#include "bench/bench_util.hpp"

int bench_main(const hetsched::CliArgs& args) {
  using namespace hetsched;
  const ScenarioSpec spec = bench::load_figure_spec("fig09", args);
  const std::uint64_t n = spec.ns.front();

  bench::print_header("Figure 9",
                      "matrix multiplication, all strategies + analysis",
                      "n=" + std::to_string(n) + " blocks (" +
                          std::to_string(n * n * n) +
                          " tasks), reps=" + std::to_string(*spec.reps));

  const auto points =
      pivot_sweep(compile_campaign(spec).run(), SweepAxis::kWorkers, true);
  print_sweep_csv(points, "p", std::cout);
  return 0;
}
