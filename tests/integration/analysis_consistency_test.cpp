// Cross-cutting consistency: the analysis, the simulator and the
// facade must agree across a parameter grid, not just at the paper's
// headline points.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/matmul_analysis.hpp"
#include "analysis/outer_analysis.hpp"
#include "core/experiment.hpp"
#include "platform/platform.hpp"

namespace hetsched {
namespace {

struct GridCase {
  std::uint32_t p;
  std::uint32_t n;
  double tolerance;  // relative
};

// Names each case by its fields; without this gtest puts the case's
// raw bytes into the discovered test names.
void PrintTo(const GridCase& c, std::ostream* os) {
  *os << "p=" << c.p << " n=" << c.n << " tolerance=" << c.tolerance;
}

class OuterConsistencyTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(OuterConsistencyTest, TwoPhaseTracksAnalysisAcrossGrid) {
  const GridCase& c = GetParam();
  ExperimentConfig config;
  config.kernel = Kernel::kOuter;
  config.strategy = "DynamicOuter2Phases";
  config.n = c.n;
  config.p = c.p;
  config.reps = 4;
  config.seed = 1000 + c.p;
  const ExperimentResult result = run_experiment(config);
  EXPECT_NEAR(result.normalized.mean, result.analysis_ratio.mean,
              c.tolerance * result.analysis_ratio.mean)
      << "p=" << c.p << " n=" << c.n;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OuterConsistencyTest,
    // p = 5 sits at the edge of the mean-field regime (the paper also
    // reports degraded accuracy at very small p), hence the wide bound.
    ::testing::Values(GridCase{5, 60, 0.20}, GridCase{10, 60, 0.08},
                      GridCase{20, 60, 0.08}, GridCase{20, 120, 0.06},
                      GridCase{40, 80, 0.06}, GridCase{80, 80, 0.06}),
    [](const auto& info) {
      std::string name = "p";
      name += std::to_string(info.param.p);
      name += "_n";
      name += std::to_string(info.param.n);
      return name;
    });

class MatmulConsistencyTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(MatmulConsistencyTest, TwoPhaseTracksAnalysisAcrossGrid) {
  const GridCase& c = GetParam();
  ExperimentConfig config;
  config.kernel = Kernel::kMatmul;
  config.strategy = "DynamicMatrix2Phases";
  config.n = c.n;
  config.p = c.p;
  config.reps = 3;
  config.seed = 2000 + c.p;
  const ExperimentResult result = run_experiment(config);
  EXPECT_NEAR(result.normalized.mean, result.analysis_ratio.mean,
              c.tolerance * result.analysis_ratio.mean)
      << "p=" << c.p << " n=" << c.n;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MatmulConsistencyTest,
    ::testing::Values(GridCase{10, 16, 0.15}, GridCase{20, 20, 0.10},
                      GridCase{40, 24, 0.08}, GridCase{60, 30, 0.08}),
    [](const auto& info) {
      std::string name = "p";
      name += std::to_string(info.param.p);
      name += "_n";
      name += std::to_string(info.param.n);
      return name;
    });

TEST(Consistency, ExperimentIsFullyDeterministic) {
  ExperimentConfig config;
  config.kernel = Kernel::kOuter;
  config.strategy = "DynamicOuter2Phases";
  config.n = 50;
  config.p = 12;
  config.reps = 3;
  config.seed = 77;
  const ExperimentResult a = run_experiment(config);
  const ExperimentResult b = run_experiment(config);
  EXPECT_EQ(a.normalized.mean, b.normalized.mean);
  EXPECT_EQ(a.makespan.mean, b.makespan.mean);
  for (std::size_t r = 0; r < a.reps.size(); ++r) {
    EXPECT_EQ(a.reps[r].sim.total_blocks, b.reps[r].sim.total_blocks);
    EXPECT_EQ(a.reps[r].speeds, b.reps[r].speeds);
  }
}

TEST(Consistency, AnalysisBetaOptimumIsInteriorOnPaperGrid) {
  // The optimizer must not sit on its search boundary for the paper's
  // parameter ranges (that would signal a validity-cap problem).
  for (const std::uint32_t p : {20u, 50u, 100u}) {
    const std::vector<double> rs(p, 1.0 / p);
    const auto outer = OuterAnalysis(rs, 100).optimal_beta();
    EXPECT_GT(outer.x, 0.3);
    EXPECT_LT(outer.x, 15.9);
    const auto mm = MatmulAnalysis(rs, 40).optimal_beta();
    EXPECT_GT(mm.x, 0.3);
    EXPECT_LT(mm.x, 15.9);
  }
}

TEST(Consistency, LowerBoundIsNeverBeatenAcrossStrategyMatrix) {
  for (const char* strategy :
       {"RandomOuter", "SortedOuter", "DynamicOuter", "DynamicOuter2Phases",
        "WorkStealingOuter"}) {
    ExperimentConfig config;
    config.kernel = Kernel::kOuter;
    config.strategy = strategy;
    config.n = 40;
    config.p = 10;
    config.reps = 2;
    config.seed = 3;
    const ExperimentResult result = run_experiment(config);
    for (const auto& rep : result.reps) {
      EXPECT_GT(rep.normalized, 1.0) << strategy;
    }
  }
}

}  // namespace
}  // namespace hetsched
