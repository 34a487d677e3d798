// Figure 11: communication of DynamicMatrix2Phases and its analysis for
// varying beta, one fixed speed draw, p = 100 workers, N/l = 40 blocks.
// Paper: analysis optimum beta = 2.95 (2.92 when speed-agnostic),
// i.e. 94.7% of tasks in phase 1. The points are
// bench/figures/fig11.hspec; --n, --reps and --seed override it. The
// draw is the spec's speed list, so --seed changes only the rep seeds
// and --p must stay 100.
#include <cmath>

#include "analysis/matmul_analysis.hpp"
#include "bench/bench_util.hpp"

int bench_main(const hetsched::CliArgs& args) {
  using namespace hetsched;
  const ScenarioSpec spec = bench::load_figure_spec("fig11", args);
  const std::uint32_t n = spec.ns.front();
  const std::uint32_t p = spec.ps.front();

  bench::print_header("Figure 11",
                      "DynamicMatrix2Phases and analysis vs beta",
                      "n=" + std::to_string(n) + ", p=" + std::to_string(p) +
                          ", one fixed speed draw, reps=" +
                          std::to_string(*spec.reps));

  const auto points =
      pivot_sweep(compile_campaign(spec).run(), SweepAxis::kBeta, true);
  print_sweep_csv(points, "beta", std::cout);

  const std::vector<double> rs(p, 1.0 / p);
  const auto opt = MatmulAnalysis(rs, n).optimal_beta();
  double best_beta = points.front().x;
  double best_value = 1e300;
  for (const auto& point : points) {
    const double v = point.normalized.at("DynamicMatrix2Phases").mean;
    if (v < best_value) {
      best_value = v;
      best_beta = point.x;
    }
  }
  std::cout << "# analysis-optimal beta (homogeneous): " << opt.x
            << " (predicted ratio " << opt.f << ", phase-1 share "
            << 100.0 * (1.0 - std::exp(-opt.x)) << "%)\n";
  std::cout << "# simulated argmin beta: " << best_beta << " (measured ratio "
            << best_value << ")\n";
  return 0;
}
