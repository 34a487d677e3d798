// End-to-end property tests: every outer strategy, driven by the real
// engine on heterogeneous platforms, must satisfy the kernel's
// correctness and communication invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "core/experiment.hpp"
#include "outer/outer_factory.hpp"
#include "platform/lower_bound.hpp"
#include "platform/platform.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace hetsched {
namespace {

struct OuterCase {
  std::string strategy;
  std::uint32_t n;
  std::uint32_t p;
};

// Without this gtest prints the raw bytes of the case, string pointer
// included, and the discovered test names change with the load address.
void PrintTo(const OuterCase& c, std::ostream* os) {
  *os << c.strategy << " n=" << c.n << " p=" << c.p;
}

class OuterInvariantTest : public ::testing::TestWithParam<OuterCase> {};

TEST_P(OuterInvariantTest, SimulationSatisfiesKernelInvariants) {
  const OuterCase& c = GetParam();
  OuterStrategyOptions options;
  options.phase2_fraction = 0.03;
  auto strategy = make_outer_strategy(c.strategy, OuterConfig{c.n}, c.p,
                                      c.n * 131 + c.p, options);

  Rng rng(derive_stream(c.n * 1000 + c.p, "invariant.speeds"));
  const Platform platform =
      make_platform(UniformIntervalSpeeds(10.0, 100.0), c.p, rng);

  RecordingTrace trace;
  const SimResult result = simulate(*strategy, platform, {}, &trace);

  // 1. Every task completes exactly once.
  const std::uint64_t total = static_cast<std::uint64_t>(c.n) * c.n;
  EXPECT_EQ(result.total_tasks_done, total);
  std::set<TaskId> completed;
  for (const auto& ev : trace.completions()) {
    EXPECT_TRUE(completed.insert(ev.task).second)
        << "task " << ev.task << " completed twice";
    EXPECT_LT(ev.task, total);
  }
  EXPECT_EQ(completed.size(), total);

  // 2. Per-worker communication lower bound: a worker computing t tasks
  //    holds rows r and columns c with r*c >= t, hence received
  //    r + c >= 2 sqrt(t) blocks (AM-GM).
  std::vector<std::uint64_t> tasks_per_worker(c.p, 0);
  for (const auto& ev : trace.completions()) ++tasks_per_worker[ev.worker];
  for (std::uint32_t w = 0; w < c.p; ++w) {
    const double t = static_cast<double>(tasks_per_worker[w]);
    EXPECT_GE(static_cast<double>(result.workers[w].blocks_received) + 1e-9,
              2.0 * std::sqrt(t))
        << "worker " << w;
  }

  // 3. A worker never needs more than 2n blocks (both full vectors),
  //    and never more than 2 blocks per served task.
  for (std::uint32_t w = 0; w < c.p; ++w) {
    EXPECT_LE(result.workers[w].blocks_received, 2u * c.n);
  }

  // 4. Aggregate volume at least the global lower bound with perfect
  //    balance is not guaranteed per draw, but it is never below the
  //    single-worker bound of 2n.
  EXPECT_GE(result.total_blocks, 2u * c.n);

  // 5. Demand-driven balance: total busy time per unit speed is nearly
  //    equal, so finishing times cluster (one task of slack each).
  EXPECT_LT(result.finish_spread(), 0.35);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, OuterInvariantTest,
    ::testing::Values(OuterCase{"RandomOuter", 24, 5},
                      OuterCase{"RandomOuter", 40, 1},
                      OuterCase{"SortedOuter", 24, 5},
                      OuterCase{"SortedOuter", 16, 16},
                      OuterCase{"DynamicOuter", 24, 5},
                      OuterCase{"DynamicOuter", 40, 1},
                      OuterCase{"DynamicOuter", 16, 16},
                      OuterCase{"DynamicOuter2Phases", 24, 5},
                      OuterCase{"DynamicOuter2Phases", 40, 1},
                      OuterCase{"DynamicOuter2Phases", 32, 12}),
    [](const auto& info) {
      return info.param.strategy + "_n" + std::to_string(info.param.n) + "_p" +
             std::to_string(info.param.p);
    });

TEST(OuterOrdering, DataAwareBeatsObliviousOnHeterogeneousPlatform) {
  ExperimentConfig base;
  base.kernel = Kernel::kOuter;
  base.n = 60;
  base.p = 12;
  base.reps = 5;
  base.seed = 77;

  auto normalized = [&](const std::string& name) {
    ExperimentConfig config = base;
    config.strategy = name;
    return run_experiment(config).normalized.mean;
  };

  const double random = normalized("RandomOuter");
  const double dynamic = normalized("DynamicOuter");
  const double two_phase = normalized("DynamicOuter2Phases");
  EXPECT_LT(dynamic, random);
  EXPECT_LT(two_phase, dynamic);
  EXPECT_GT(two_phase, 1.0);  // cannot beat the lower bound
}

TEST(OuterOrdering, TrivialSingleTaskInstance) {
  // n = 1: one task, two blocks, any strategy.
  for (const auto& name : outer_strategy_names()) {
    OuterStrategyOptions options;
    options.phase2_fraction = 0.5;
    auto strategy = make_outer_strategy(name, OuterConfig{1}, 2, 3, options);
    const Platform platform({10.0, 20.0});
    const SimResult result = simulate(*strategy, platform);
    EXPECT_EQ(result.total_tasks_done, 1u) << name;
    EXPECT_EQ(result.total_blocks, 2u) << name;
  }
}

TEST(OuterOrdering, MoreWorkersNeverReduceTotalVolume) {
  // Replicating inputs across more workers increases communication.
  auto volume = [&](std::uint32_t p) {
    ExperimentConfig config;
    config.kernel = Kernel::kOuter;
    config.strategy = "DynamicOuter";
    config.n = 40;
    config.p = p;
    config.reps = 3;
    config.seed = 5;
    double blocks = 0.0;
    const auto result = run_experiment(config);
    for (const auto& rep : result.reps) {
      blocks += static_cast<double>(rep.sim.total_blocks);
    }
    return blocks;
  };
  EXPECT_LT(volume(2), volume(8));
  EXPECT_LT(volume(8), volume(32));
}

}  // namespace
}  // namespace hetsched
