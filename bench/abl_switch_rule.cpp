// Ablation: what does knowing the speeds buy? Compares the paper's
// speed-agnostic global switch (pool <= e^{-beta} N^2 tasks) against a
// speed-aware variant that switches each worker individually at its
// analytic x_k(beta) — supporting the paper's Section 3.6 claim that
// the agnostic rule loses almost nothing.
#include <cmath>
#include <iostream>

#include "analysis/homogeneous.hpp"
#include "bench/bench_util.hpp"
#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "outer/dynamic_outer.hpp"
#include "outer/per_worker_switch.hpp"
#include "platform/lower_bound.hpp"
#include "platform/platform.hpp"
#include "sim/engine.hpp"

int bench_main(const hetsched::CliArgs& args) {
  using namespace hetsched;
  const auto n = args.get_count("n", 100);
  const auto reps = args.get_count("reps", 10);
  const std::uint64_t seed = args.get_int("seed", 20140623);
  const auto ps = args.get_count_list("p", {10, 20, 50, 100, 200});
  args.reject_unread();

  bench::print_header(
      "Ablation (switch rule)",
      "speed-agnostic global switch vs speed-aware per-worker switch",
      "outer product, n=" + std::to_string(n) + ", beta from homogeneous "
          "analysis, reps=" + std::to_string(reps));

  CsvWriter csv(std::cout, {"p", "global.mean", "global.sd",
                            "per_worker.mean", "per_worker.sd",
                            "aware_gain_pct"});

  for (const std::uint32_t p : ps) {
    const double beta = beta_homogeneous_outer(p, n);
    RunningStats global_stats, aware_stats;
    for (std::uint32_t r = 0; r < reps; ++r) {
      const std::uint64_t rep_seed =
          derive_stream(seed, "rep." + std::to_string(r));
      Rng speed_rng(derive_stream(rep_seed, "speeds"));
      const Platform platform =
          make_platform(UniformIntervalSpeeds(10.0, 100.0), p, speed_rng);
      const double lb = outer_lower_bound(n, platform.relative_speeds());

      DynamicOuterStrategy global(
          OuterConfig{n}, p, rep_seed,
          static_cast<std::uint64_t>(std::llround(
              std::exp(-beta) * static_cast<double>(n) * n)));
      global_stats.push(simulate(global, platform).normalized_volume(lb));

      PerWorkerSwitchOuterStrategy aware(OuterConfig{n}, platform.speeds(),
                                         rep_seed, beta);
      aware_stats.push(simulate(aware, platform).normalized_volume(lb));
    }
    csv.row(std::vector<double>{
        static_cast<double>(p), global_stats.mean(), global_stats.stddev(),
        aware_stats.mean(), aware_stats.stddev(),
        100.0 * (1.0 - aware_stats.mean() / global_stats.mean())});
  }
  std::cout << "# aware_gain_pct: communication saved by knowing speeds "
               "(paper: negligible)\n";
  return 0;
}
