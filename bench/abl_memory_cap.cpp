// Ablation: finite worker memory. The paper's workers cache blocks
// forever; this bench sweeps a per-worker LRU cache capacity and
// measures the communication inflation from refetches — locating the
// memory footprint the paper's volumes implicitly assume (roughly the
// phase-1 working set, 2 x_k N blocks per worker).
#include <iostream>

#include "bench/bench_util.hpp"
#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "outer/bounded_lru.hpp"
#include "platform/lower_bound.hpp"
#include "platform/platform.hpp"
#include "sim/engine.hpp"

int bench_main(const hetsched::CliArgs& args) {
  using namespace hetsched;
  const auto n = args.get_count("n", 100);
  const auto p = args.get_count("p", 20);
  const auto reps = args.get_count("reps", 10);
  const std::uint64_t seed = args.get_int("seed", 20140623);
  args.reject_unread();

  bench::print_header(
      "Ablation (memory)", "per-worker LRU cache capacity sweep",
      "BoundedLruOuter, n=" + std::to_string(n) + ", p=" + std::to_string(p) +
          ", capacity in blocks (2n = unbounded), reps=" +
          std::to_string(reps));

  CsvWriter csv(std::cout,
                {"capacity", "normalized.mean", "normalized.sd",
                 "refetch_share"});

  for (const std::uint32_t capacity :
       {4u, 8u, 16u, 32u, 64u, 128u, 2 * n}) {
    RunningStats normalized;
    double refetch_share = 0.0;
    for (std::uint32_t r = 0; r < reps; ++r) {
      const std::uint64_t rep_seed =
          derive_stream(seed, "rep." + std::to_string(r));
      Rng speed_rng(derive_stream(rep_seed, "speeds"));
      const Platform platform =
          make_platform(UniformIntervalSpeeds(10.0, 100.0), p, speed_rng);
      BoundedLruOuterStrategy strategy(OuterConfig{n}, p, rep_seed, capacity);
      const SimResult result = simulate(strategy, platform);
      const double lb = outer_lower_bound(n, platform.relative_speeds());
      normalized.push(result.normalized_volume(lb));
      refetch_share += static_cast<double>(strategy.refetches()) /
                       static_cast<double>(result.total_blocks);
    }
    csv.row(std::vector<double>{static_cast<double>(capacity),
                                normalized.mean(), normalized.stddev(),
                                refetch_share / reps});
  }
  std::cout << "# capacity 2n never evicts; small caches pay refetches\n";
  return 0;
}
