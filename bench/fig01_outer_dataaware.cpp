// Figure 1: comparison of random and data-aware dynamic strategies for
// the outer product, vectors of N/l = 100 blocks, speeds U[10,100].
// Series: normalized communication vs worker count. The points are
// bench/figures/fig01.hspec; --n, --p, --reps and --seed override it.
#include "bench/bench_util.hpp"

int bench_main(const hetsched::CliArgs& args) {
  using namespace hetsched;
  const ScenarioSpec spec = bench::load_figure_spec("fig01", args);

  bench::print_header(
      "Figure 1", "outer product, data-aware vs random strategies",
      "n=" + std::to_string(spec.ns.front()) +
          " blocks, speeds U[10,100], reps=" + std::to_string(*spec.reps));

  const auto points =
      pivot_sweep(compile_campaign(spec).run(), SweepAxis::kWorkers, false);
  print_sweep_csv(points, "p", std::cout);
  return 0;
}
