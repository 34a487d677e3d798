// Figure 5: all outer-product strategies plus the analysis curve for
// large vectors, N/l = 1000 blocks (10^6 tasks). The gap between
// data-oblivious and data-aware strategies widens markedly with N.
// The points are bench/figures/fig05.hspec; --n, --p, --reps and
// --seed override it.
#include "bench/bench_util.hpp"

int bench_main(const hetsched::CliArgs& args) {
  using namespace hetsched;
  const ScenarioSpec spec = bench::load_figure_spec("fig05", args);

  bench::print_header("Figure 5",
                      "outer product, large vectors, all strategies + analysis",
                      "n=" + std::to_string(spec.ns.front()) +
                          " blocks, reps=" + std::to_string(*spec.reps));

  const auto points =
      pivot_sweep(compile_campaign(spec).run(), SweepAxis::kWorkers, true);
  print_sweep_csv(points, "p", std::cout);
  return 0;
}
