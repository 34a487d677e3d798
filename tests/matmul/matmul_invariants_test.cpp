// End-to-end property tests for matrix-multiply strategies under the
// discrete-event engine.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "core/experiment.hpp"
#include "matmul/matmul_factory.hpp"
#include "platform/platform.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace hetsched {
namespace {

struct MatmulCase {
  std::string strategy;
  std::uint32_t n;
  std::uint32_t p;
};

// Without this gtest prints the raw bytes of the case, string pointer
// included, and the discovered test names change with the load address.
void PrintTo(const MatmulCase& c, std::ostream* os) {
  *os << c.strategy << " n=" << c.n << " p=" << c.p;
}

class MatmulInvariantTest : public ::testing::TestWithParam<MatmulCase> {};

TEST_P(MatmulInvariantTest, SimulationSatisfiesKernelInvariants) {
  const MatmulCase& c = GetParam();
  MatmulStrategyOptions options;
  options.phase2_fraction = 0.05;
  auto strategy = make_matmul_strategy(c.strategy, MatmulConfig{c.n}, c.p,
                                       c.n * 977 + c.p, options);

  Rng rng(derive_stream(c.n * 2000 + c.p, "invariant.speeds"));
  const Platform platform =
      make_platform(UniformIntervalSpeeds(10.0, 100.0), c.p, rng);

  RecordingTrace trace;
  const SimResult result = simulate(*strategy, platform, {}, &trace);

  // 1. Every task completes exactly once.
  const std::uint64_t total =
      static_cast<std::uint64_t>(c.n) * c.n * c.n;
  EXPECT_EQ(result.total_tasks_done, total);
  std::set<TaskId> completed;
  for (const auto& ev : trace.completions()) {
    EXPECT_TRUE(completed.insert(ev.task).second);
  }
  EXPECT_EQ(completed.size(), total);

  // 2. Per-worker bound: computing t tasks requires index sets with
  //    |I||J||K| >= t, so at least 3 t^(2/3) blocks (AM-GM over the
  //    three face areas).
  std::vector<std::uint64_t> tasks_per_worker(c.p, 0);
  for (const auto& ev : trace.completions()) ++tasks_per_worker[ev.worker];
  for (std::uint32_t w = 0; w < c.p; ++w) {
    const double t = static_cast<double>(tasks_per_worker[w]);
    EXPECT_GE(static_cast<double>(result.workers[w].blocks_received) + 1e-9,
              3.0 * std::pow(t, 2.0 / 3.0))
        << "worker " << w;
  }

  // 3. Nobody receives more than all 3 n^2 blocks.
  for (std::uint32_t w = 0; w < c.p; ++w) {
    EXPECT_LE(result.workers[w].blocks_received,
              3u * static_cast<std::uint64_t>(c.n) * c.n);
  }

  // 4. Demand-driven finish times cluster — meaningful only when every
  //    worker gets enough tasks to amortize end-game idling.
  if (total / c.p >= 40) {
    EXPECT_LT(result.finish_spread(), 0.35);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, MatmulInvariantTest,
    ::testing::Values(MatmulCase{"RandomMatrix", 8, 4},
                      MatmulCase{"RandomMatrix", 10, 1},
                      MatmulCase{"SortedMatrix", 8, 4},
                      MatmulCase{"DynamicMatrix", 8, 4},
                      MatmulCase{"DynamicMatrix", 10, 1},
                      MatmulCase{"DynamicMatrix", 6, 12},
                      MatmulCase{"DynamicMatrix2Phases", 8, 4},
                      MatmulCase{"DynamicMatrix2Phases", 10, 1},
                      MatmulCase{"DynamicMatrix2Phases", 6, 12}),
    [](const auto& info) {
      return info.param.strategy + "_n" + std::to_string(info.param.n) + "_p" +
             std::to_string(info.param.p);
    });

TEST(MatmulOrdering, DataAwareBeatsObliviousOnHeterogeneousPlatform) {
  ExperimentConfig base;
  base.kernel = Kernel::kMatmul;
  base.n = 20;
  base.p = 16;
  base.reps = 3;
  base.seed = 99;

  auto normalized = [&](const std::string& name) {
    ExperimentConfig config = base;
    config.strategy = name;
    return run_experiment(config).normalized.mean;
  };

  const double random = normalized("RandomMatrix");
  const double dynamic = normalized("DynamicMatrix");
  const double two_phase = normalized("DynamicMatrix2Phases");
  EXPECT_LT(dynamic, random);
  EXPECT_LT(two_phase, dynamic);
  EXPECT_GT(two_phase, 1.0);
}

TEST(MatmulOrdering, TrivialSingleTaskInstance) {
  for (const auto& name : matmul_strategy_names()) {
    MatmulStrategyOptions options;
    options.phase2_fraction = 0.5;
    auto strategy = make_matmul_strategy(name, MatmulConfig{1}, 2, 3, options);
    const Platform platform({10.0, 20.0});
    const SimResult result = simulate(*strategy, platform);
    EXPECT_EQ(result.total_tasks_done, 1u) << name;
    EXPECT_EQ(result.total_blocks, 3u) << name;
  }
}

}  // namespace
}  // namespace hetsched
