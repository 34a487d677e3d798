// Randomized stress tests: seeded random configurations cycled through
// every strategy and both engines, asserting the global invariants that
// must hold regardless of parameters. Each case is cheap; breadth comes
// from the parameterization.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "matmul/matmul_factory.hpp"
#include "outer/outer_factory.hpp"
#include "platform/platform.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace hetsched {
namespace {

struct StressDraw {
  std::uint32_t n;
  std::uint32_t p;
  std::string outer_strategy;
  std::string matmul_strategy;
  double phase2_fraction;
  std::vector<double> speeds;
};

StressDraw draw_config(std::uint64_t seed) {
  Rng rng(derive_stream(seed, "stress"));
  StressDraw draw;
  draw.n = 4 + static_cast<std::uint32_t>(rng.next_below(20));
  draw.p = 1 + static_cast<std::uint32_t>(rng.next_below(12));
  const std::vector<std::string> outer{"RandomOuter", "SortedOuter",
                                       "DynamicOuter", "DynamicOuter2Phases",
                                       "WorkStealingOuter"};
  const std::vector<std::string> matmul{"RandomMatrix", "SortedMatrix",
                                        "DynamicMatrix",
                                        "DynamicMatrix2Phases",
                                        "WorkStealingMatmul"};
  draw.outer_strategy = outer[rng.next_below(outer.size())];
  draw.matmul_strategy = matmul[rng.next_below(matmul.size())];
  draw.phase2_fraction = 0.01 + 0.5 * rng.next_double();
  draw.speeds.resize(draw.p);
  for (auto& s : draw.speeds) s = rng.uniform(5.0, 500.0);
  return draw;
}

class StressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StressTest, OuterStrategyInvariantsHoldForRandomConfig) {
  const StressDraw draw = draw_config(GetParam());
  OuterStrategyOptions options;
  options.phase2_fraction = draw.phase2_fraction;
  auto strategy = make_outer_strategy(draw.outer_strategy,
                                      OuterConfig{draw.n}, draw.p,
                                      GetParam(), options);
  const Platform platform(draw.speeds);
  RecordingTrace trace;
  const SimResult result = simulate(*strategy, platform, {}, &trace);

  const std::uint64_t total = static_cast<std::uint64_t>(draw.n) * draw.n;
  ASSERT_EQ(result.total_tasks_done, total) << draw.outer_strategy;
  std::set<TaskId> completed;
  for (const auto& ev : trace.completions()) {
    EXPECT_TRUE(completed.insert(ev.task).second);
  }
  for (std::uint32_t w = 0; w < draw.p; ++w) {
    EXPECT_LE(result.workers[w].blocks_received, 2u * draw.n);
  }
  EXPECT_GE(result.total_blocks, 2u * draw.n);
}

TEST_P(StressTest, MatmulStrategyInvariantsHoldForRandomConfig) {
  StressDraw draw = draw_config(GetParam());
  draw.n = 2 + draw.n / 3;  // keep n^3 small
  MatmulStrategyOptions options;
  options.phase2_fraction = draw.phase2_fraction;
  auto strategy = make_matmul_strategy(draw.matmul_strategy,
                                       MatmulConfig{draw.n}, draw.p,
                                       GetParam(), options);
  const Platform platform(draw.speeds);
  const SimResult result = simulate(*strategy, platform);
  const auto n64 = static_cast<std::uint64_t>(draw.n);
  ASSERT_EQ(result.total_tasks_done, n64 * n64 * n64) << draw.matmul_strategy;
  for (std::uint32_t w = 0; w < draw.p; ++w) {
    EXPECT_LE(result.workers[w].blocks_received, 3u * n64 * n64);
  }
}

TEST_P(StressTest, TimedEngineAgreesOnTotalsWithGenerousBandwidth) {
  const StressDraw draw = draw_config(GetParam());
  OuterStrategyOptions options;
  options.phase2_fraction = draw.phase2_fraction;
  auto a = make_outer_strategy(draw.outer_strategy, OuterConfig{draw.n},
                               draw.p, GetParam(), options);
  auto b = make_outer_strategy(draw.outer_strategy, OuterConfig{draw.n},
                               draw.p, GetParam(), options);
  const Platform platform(draw.speeds);
  const SimResult untimed = simulate(*a, platform);
  SimConfig config;
  config.comm = CommModel{1e12, 0.0};
  config.lookahead = 2;
  const SimResult timed = simulate(*b, platform, config);
  EXPECT_EQ(timed.total_tasks_done, untimed.total_tasks_done);
  // Identical request interleavings are not guaranteed, but totals and
  // caps are.
  EXPECT_GE(timed.total_blocks, 2u * draw.n);
  EXPECT_LE(timed.total_blocks,
            static_cast<std::uint64_t>(2u * draw.n) * draw.p);
}

TEST_P(StressTest, ExperimentFacadeRunsRandomConfig) {
  const StressDraw draw = draw_config(GetParam());
  ExperimentConfig config;
  config.kernel = Kernel::kOuter;
  config.strategy = draw.outer_strategy;
  config.n = draw.n;
  config.p = draw.p;
  config.reps = 2;
  config.seed = GetParam();
  if (draw.outer_strategy.find("2Phases") != std::string::npos) {
    config.phase2_fraction = draw.phase2_fraction;
  }
  const ExperimentResult result = run_experiment(config);
  EXPECT_GT(result.normalized.mean, 0.0);
  EXPECT_EQ(result.reps.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressTest,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace hetsched
