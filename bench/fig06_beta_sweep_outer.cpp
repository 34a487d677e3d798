// Figure 6: communication of DynamicOuter2Phases and its analysis for
// varying beta (the switch threshold), one fixed speed draw, p = 20,
// N/l = 100. Also reports the analysis-optimal beta (paper: 4.17, with
// the simulation optimal anywhere in [3, 6]). The points are
// bench/figures/fig06.hspec; --n, --reps and --seed override it. The
// draw is the spec's speed list, so --seed changes only the rep seeds
// and --p must stay 20.
#include "analysis/outer_analysis.hpp"
#include "bench/bench_util.hpp"

int bench_main(const hetsched::CliArgs& args) {
  using namespace hetsched;
  const ScenarioSpec spec = bench::load_figure_spec("fig06", args);
  const std::uint32_t n = spec.ns.front();
  const std::uint32_t p = spec.ps.front();

  bench::print_header("Figure 6",
                      "DynamicOuter2Phases and analysis vs beta",
                      "n=" + std::to_string(n) + ", p=" + std::to_string(p) +
                          ", one fixed speed draw, reps=" +
                          std::to_string(*spec.reps));

  const auto points =
      pivot_sweep(compile_campaign(spec).run(), SweepAxis::kBeta, true);
  print_sweep_csv(points, "beta", std::cout);

  // The analysis-chosen beta (homogeneous, speed-agnostic) and the
  // empirical argmin of the simulated series.
  const std::vector<double> rs(p, 1.0 / p);
  const auto opt = OuterAnalysis(rs, n).optimal_beta();
  double best_beta = points.front().x;
  double best_value = 1e300;
  for (const auto& point : points) {
    const double v = point.normalized.at("DynamicOuter2Phases").mean;
    if (v < best_value) {
      best_value = v;
      best_beta = point.x;
    }
  }
  std::cout << "# analysis-optimal beta (homogeneous): " << opt.x
            << " (predicted ratio " << opt.f << ")\n";
  std::cout << "# simulated argmin beta: " << best_beta << " (measured ratio "
            << best_value << ")\n";
  return 0;
}
