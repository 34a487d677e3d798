#include "core/figure.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "spec/compile.hpp"
#include "spec/parse.hpp"

namespace hetsched {
namespace {

// Parses, compiles and runs a spec the way the figure benches do.
std::vector<SweepPoint> run_spec(const std::string& text, SweepAxis axis,
                                 bool analysis) {
  const ScenarioSpec spec =
      resolve_spec(parse_spec(text), batch_spec_defaults());
  return pivot_sweep(compile_campaign(spec).run(), axis, analysis);
}

// One fixed draw of six speeds, as Figures 2, 6 and 11 use.
constexpr const char* kFixedDraw =
    "[platform]\nspeeds = list 12.5 40 71 88 23 55\n";

CampaignOutcome outcome(const std::string& strategy, std::uint32_t p,
                        double normalized, double analysis) {
  CampaignOutcome out;
  out.config.strategy = strategy;
  out.config.p = p;
  out.result.normalized = Summary{normalized, 0.0, normalized, normalized, 1};
  out.result.analysis_ratio = Summary{analysis, 0.0, analysis, analysis, 1};
  return out;
}

TEST(SweepWorkerCount, ProducesOnePointPerP) {
  const auto points = run_spec(
      "[experiment]\nkernel = outer\nreps = 2\nseed = 7\n"
      "[grid]\nstrategy = RandomOuter, DynamicOuter\nn = 20\np = 4, 8\n",
      SweepAxis::kWorkers, true);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].x, 4.0);
  EXPECT_DOUBLE_EQ(points[1].x, 8.0);
  for (const auto& point : points) {
    EXPECT_TRUE(point.normalized.count("RandomOuter"));
    EXPECT_TRUE(point.normalized.count("DynamicOuter"));
    EXPECT_TRUE(point.normalized.count("Analysis"));
  }
}

TEST(SweepWorkerCount, DataAwareBelowRandomAtEveryPoint) {
  const auto points = run_spec(
      "[experiment]\nkernel = outer\nreps = 3\nseed = 3\n"
      "[grid]\nstrategy = RandomOuter, DynamicOuter\nn = 30\np = 4, 10\n",
      SweepAxis::kWorkers, false);
  ASSERT_EQ(points.size(), 2u);
  for (const auto& point : points) {
    EXPECT_FALSE(point.normalized.count("Analysis"));
    EXPECT_LT(point.normalized.at("DynamicOuter").mean,
              point.normalized.at("RandomOuter").mean)
        << "p=" << point.x;
  }
}

TEST(SweepBeta, CoversRequestedBetasWithAnalysis) {
  const auto points = run_spec(
      std::string("[experiment]\nkernel = outer\nreps = 2\nseed = 11\n") +
          kFixedDraw +
          "[grid]\nstrategy = DynamicOuter2Phases, DynamicOuter\nn = 24\n"
          "p = 6\nbeta = 2, 4, 6\n",
      SweepAxis::kBeta, true);
  ASSERT_EQ(points.size(), 3u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& point = points[i];
    EXPECT_NEAR(point.x, 2.0 * (i + 1), 1e-12);
    EXPECT_TRUE(point.normalized.count("DynamicOuter2Phases"));
    EXPECT_TRUE(point.normalized.count("Analysis"));
    EXPECT_TRUE(point.normalized.count("DynamicOuter"));
    EXPECT_GT(point.normalized.at("Analysis").mean, 1.0);
  }
  // The pure-dynamic reference is the same flat series at every beta.
  EXPECT_DOUBLE_EQ(points[0].normalized.at("DynamicOuter").mean,
                   points[2].normalized.at("DynamicOuter").mean);
  // The analysis follows beta: it comes from the 2-phase entries.
  EXPECT_NE(points[0].normalized.at("Analysis").mean,
            points[2].normalized.at("Analysis").mean);
}

TEST(SweepPhase1Fraction, EndpointsMatchLimitStrategies) {
  // 0% in phase 1 behaves like the random strategy; ~100% like the
  // pure dynamic one.
  const auto points = run_spec(
      std::string("[experiment]\nkernel = outer\nreps = 3\nseed = 13\n") +
          kFixedDraw +
          "[grid]\nstrategy = DynamicOuter2Phases, RandomOuter\nn = 30\n"
          "p = 6\nphase2 = 1, 0.030000000000000027\n",
      SweepAxis::kPhase1Fraction, false);
  ASSERT_EQ(points.size(), 2u);
  const auto& zero = points[0];
  EXPECT_EQ(zero.x, 0.0);
  EXPECT_NEAR(zero.normalized.at("DynamicOuter2Phases").mean,
              zero.normalized.at("RandomOuter").mean,
              0.25 * zero.normalized.at("RandomOuter").mean);
  const auto& high = points[1];
  EXPECT_NEAR(high.x, 0.97, 1e-15);
  EXPECT_LT(high.normalized.at("DynamicOuter2Phases").mean,
            high.normalized.at("RandomOuter").mean);
}

TEST(PivotSweep, AnalysisComesFromTheTwoPhaseEntryElseTheFirst) {
  const auto points =
      pivot_sweep({outcome("RandomOuter", 4, 3.0, 1.5),
                   outcome("DynamicOuter2Phases", 4, 2.0, 1.7),
                   outcome("RandomOuter", 8, 3.5, 1.9),
                   outcome("DynamicOuter", 8, 2.5, 2.1)},
                  SweepAxis::kWorkers, true);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].normalized.at("Analysis").mean, 1.7);
  EXPECT_EQ(points[1].normalized.at("Analysis").mean, 1.9);
  EXPECT_EQ(points[1].normalized.at("DynamicOuter").mean, 2.5);
}

TEST(PivotSweep, TwoEntriesOnOnePointThrow) {
  // Say an n grid pivoted over p: both n values land on the same x.
  EXPECT_THROW(pivot_sweep({outcome("RandomOuter", 4, 3.0, 1.5),
                            outcome("RandomOuter", 4, 3.1, 1.5)},
                           SweepAxis::kWorkers, false),
               std::invalid_argument);
  // A beta axis needs a phase2 value on every entry.
  EXPECT_THROW(pivot_sweep({outcome("DynamicOuter2Phases", 4, 2.0, 1.7)},
                           SweepAxis::kBeta, true),
               std::invalid_argument);
}

CampaignOutcome phase2_outcome(const std::string& strategy, double phase2,
                               double normalized, double analysis) {
  CampaignOutcome out = outcome(strategy, 6, normalized, analysis);
  out.config.phase2_fraction = phase2;
  return out;
}

TEST(PivotSweep, EntryWithoutPhaseTwoIsPlacedAtEveryPhaseTwoX) {
  // The reference strategy ignores phase2: one entry, listed first, is
  // the same experiment at every beta the 2-phase entries define.
  const auto points =
      pivot_sweep({outcome("DynamicOuter", 6, 2.5, 1.1),
                   phase2_outcome("DynamicOuter2Phases", 0.5, 2.0, 1.7),
                   phase2_outcome("DynamicOuter2Phases", 0.25, 1.9, 1.6)},
                  SweepAxis::kBeta, true);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].x, -std::log(0.5));
  EXPECT_EQ(points[1].x, -std::log(0.25));
  for (const auto& point : points) {
    EXPECT_EQ(point.normalized.at("DynamicOuter").mean, 2.5);
  }
  EXPECT_EQ(points[0].normalized.at("DynamicOuter2Phases").mean, 2.0);
  // The analysis still comes from the 2-phase entry at each x.
  EXPECT_EQ(points[0].normalized.at("Analysis").mean, 1.7);
  EXPECT_EQ(points[1].normalized.at("Analysis").mean, 1.6);

  const auto phase1 =
      pivot_sweep({phase2_outcome("DynamicOuter2Phases", 1.0, 3.0, 1.5),
                   phase2_outcome("DynamicOuter2Phases", 0.25, 2.0, 1.4),
                   outcome("RandomOuter", 6, 3.1, 1.2)},
                  SweepAxis::kPhase1Fraction, false);
  ASSERT_EQ(phase1.size(), 2u);
  EXPECT_EQ(phase1[0].x, 0.0);
  EXPECT_EQ(phase1[1].x, 0.75);
  EXPECT_EQ(phase1[0].normalized.at("RandomOuter").mean, 3.1);
  EXPECT_EQ(phase1[1].normalized.at("RandomOuter").mean, 3.1);
}

TEST(PivotSweep, PhaseTwoAxisRejectsMissingValues) {
  // A 2-phase entry without phase2 has no x on a beta axis.
  EXPECT_THROW(
      pivot_sweep({phase2_outcome("DynamicOuter2Phases", 0.5, 2.0, 1.7),
                   outcome("DynamicMatrix2Phases", 6, 2.0, 1.7)},
                  SweepAxis::kBeta, false),
      std::invalid_argument);
  // Nor does an axis on which no entry carries phase2 have any x.
  EXPECT_THROW(pivot_sweep({outcome("DynamicOuter", 6, 2.5, 1.1),
                            outcome("RandomOuter", 6, 3.1, 1.2)},
                           SweepAxis::kPhase1Fraction, false),
               std::invalid_argument);
}

TEST(PrintSweepCsv, EmitsHeaderAndRows) {
  std::vector<SweepPoint> points(2);
  points[0].x = 1.0;
  points[0].normalized["S"] = Summary{2.0, 0.1, 1.9, 2.1, 3};
  points[1].x = 2.0;
  points[1].normalized["S"] = Summary{3.0, 0.2, 2.8, 3.2, 3};
  std::ostringstream out;
  print_sweep_csv(points, "p", out);
  const std::string text = out.str();
  EXPECT_NE(text.find("p,S.mean,S.sd"), std::string::npos);
  EXPECT_NE(text.find("1,2,0.1"), std::string::npos);
  EXPECT_NE(text.find("2,3,0.2"), std::string::npos);
}

TEST(PrintSweepCsv, MissingSeriesLeavesEmptyCells) {
  std::vector<SweepPoint> points(1);
  points[0].x = 5.0;
  points[0].normalized["A"] = Summary{1.0, 0.0, 1.0, 1.0, 1};
  std::vector<SweepPoint> both = points;
  both[0].normalized.erase("A");
  both[0].normalized["B"] = Summary{2.0, 0.0, 2.0, 2.0, 1};
  std::vector<SweepPoint> merged{points[0], both[0]};
  std::ostringstream out;
  print_sweep_csv(merged, "x", out);
  EXPECT_NE(out.str().find(",,"), std::string::npos);
}

}  // namespace
}  // namespace hetsched
