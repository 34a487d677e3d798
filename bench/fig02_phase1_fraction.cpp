// Figure 2: communication of DynamicOuter2Phases as a function of the
// percentage of tasks treated in phase 1, for one fixed speed draw with
// p = 20 workers and N/l = 100 blocks. Flat series for the other
// strategies are shown for reference. The points are
// bench/figures/fig02.hspec; --n, --reps and --seed override it. The
// draw is the spec's speed list, so --seed changes only the rep seeds
// and --p must stay 20.
#include "bench/bench_util.hpp"

int bench_main(const hetsched::CliArgs& args) {
  using namespace hetsched;
  const ScenarioSpec spec = bench::load_figure_spec("fig02", args);

  bench::print_header("Figure 2",
                      "DynamicOuter2Phases vs fraction of tasks in phase 1",
                      "n=" + std::to_string(spec.ns.front()) +
                          ", p=" + std::to_string(spec.ps.front()) +
                          ", one fixed speed draw, reps=" +
                          std::to_string(*spec.reps));

  const auto points = pivot_sweep(compile_campaign(spec).run(),
                                  SweepAxis::kPhase1Fraction, false);
  print_sweep_csv(points, "phase1_fraction", std::cout);
  return 0;
}
