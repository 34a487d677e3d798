// Extension: decentralized work stealing vs the paper's master-based
// strategies on the outer product. Work stealing starts from a
// speed-agnostic band partition (good locality, like SortedOuter per
// band) and re-balances by stealing — this bench shows where it lands
// between the data-oblivious and data-aware schedulers, and how many
// steals the heterogeneity induces. The points are
// bench/figures/ext_work_stealing.hspec; --n, --p, --reps and --seed
// override it.
#include <iostream>

#include "bench/bench_util.hpp"

int bench_main(const hetsched::CliArgs& args) {
  using namespace hetsched;
  const ScenarioSpec spec = bench::load_figure_spec("ext_work_stealing", args);

  bench::print_header(
      "Extension (work stealing)",
      "band-partition + steal-half vs master-based dynamic strategies",
      "outer product, n=" + std::to_string(spec.ns.front()) +
          ", speeds U[10,100], reps=" + std::to_string(*spec.reps));

  const auto points =
      pivot_sweep(compile_campaign(spec).run(), SweepAxis::kWorkers, false);
  print_sweep_csv(points, "p", std::cout);
  std::cout << "# band partition gives work stealing SortedOuter-like "
               "locality until steals replicate inputs\n";
  return 0;
}
