#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "runtime/thread_pool.hpp"

namespace hetsched {
namespace {

TEST(KernelEnum, RoundTrips) {
  EXPECT_EQ(kernel_from_string("outer"), Kernel::kOuter);
  EXPECT_EQ(kernel_from_string("matmul"), Kernel::kMatmul);
  EXPECT_EQ(to_string(Kernel::kOuter), "outer");
  EXPECT_EQ(to_string(Kernel::kMatmul), "matmul");
  EXPECT_THROW(kernel_from_string("other"), std::invalid_argument);
}

TEST(ResolveBeta, ZeroForNonTwoPhaseStrategies) {
  ExperimentConfig config;
  config.strategy = "RandomOuter";
  EXPECT_DOUBLE_EQ(resolve_beta(config), 0.0);
  config.strategy = "DynamicOuter";
  EXPECT_DOUBLE_EQ(resolve_beta(config), 0.0);
}

TEST(ResolveBeta, ExplicitFractionWins) {
  ExperimentConfig config;
  config.strategy = "DynamicOuter2Phases";
  config.phase2_fraction = std::exp(-5.0);
  EXPECT_NEAR(resolve_beta(config), 5.0, 1e-12);
}

TEST(ResolveBeta, DefaultsToHomogeneousOptimum) {
  ExperimentConfig config;
  config.strategy = "DynamicOuter2Phases";
  config.n = 100;
  config.p = 20;
  const double beta = resolve_beta(config);
  EXPECT_GT(beta, 3.0);
  EXPECT_LT(beta, 6.0);
}

TEST(ResolveBeta, RejectsBadFraction) {
  ExperimentConfig config;
  config.strategy = "DynamicOuter2Phases";
  config.phase2_fraction = 0.0;
  EXPECT_THROW(resolve_beta(config), std::invalid_argument);
  config.phase2_fraction = 1.5;
  EXPECT_THROW(resolve_beta(config), std::invalid_argument);
}

TEST(RunSingle, ProducesConsistentOutcome) {
  ExperimentConfig config;
  config.kernel = Kernel::kOuter;
  config.strategy = "DynamicOuter";
  config.n = 40;
  config.p = 8;
  const RepOutcome outcome = run_single(config, 1234);
  EXPECT_EQ(outcome.sim.total_tasks_done, 1600u);
  EXPECT_GT(outcome.lower_bound, 0.0);
  EXPECT_NEAR(outcome.normalized,
              static_cast<double>(outcome.sim.total_blocks) /
                  outcome.lower_bound,
              1e-12);
  EXPECT_EQ(outcome.speeds.size(), 8u);
  EXPECT_GT(outcome.analysis_ratio, 1.0);
}

TEST(RunSingle, DeterministicForSameRepSeed) {
  ExperimentConfig config;
  config.kernel = Kernel::kOuter;
  config.strategy = "RandomOuter";
  config.n = 30;
  config.p = 5;
  const RepOutcome a = run_single(config, 42);
  const RepOutcome b = run_single(config, 42);
  EXPECT_EQ(a.sim.total_blocks, b.sim.total_blocks);
  EXPECT_EQ(a.speeds, b.speeds);
  EXPECT_DOUBLE_EQ(a.normalized, b.normalized);
}

TEST(RunSingle, DifferentRepSeedsDiffer) {
  ExperimentConfig config;
  config.kernel = Kernel::kOuter;
  config.strategy = "RandomOuter";
  config.n = 30;
  config.p = 5;
  const RepOutcome a = run_single(config, 1);
  const RepOutcome b = run_single(config, 2);
  EXPECT_NE(a.speeds, b.speeds);
}

TEST(RunSingle, RepLeftUnfinishedByCrashesThrowsInBothEngines) {
  // Crashing every worker at t = 0 used to report the few blocks
  // shipped before the crash as a normalized volume below 1 and a zero
  // makespan. Both engines must reject the unfinished rep instead,
  // while a crash after the pool has drained stays harmless.
  ExperimentConfig config;
  config.kernel = Kernel::kOuter;
  config.strategy = "RandomOuter";
  config.n = 10;
  config.p = 2;
  for (const bool timed : {false, true}) {
    config.timed = timed;
    config.faults = {WorkerFault{0.0, 0, 0.0}, WorkerFault{0.0, 1, 0.0}};
    try {
      (void)run_single(config, 7);
      ADD_FAILURE() << "no throw, timed = " << timed;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("of 100 tasks"), std::string::npos)
          << e.what();
    }
    EXPECT_THROW((void)run_experiment(config), std::runtime_error);
    config.faults = {WorkerFault{1e9, 0, 0.0}, WorkerFault{1e9, 1, 0.0}};
    EXPECT_EQ(run_single(config, 7).sim.total_tasks_done, 100u);
  }
}

TEST(RunExperiment, AggregatesRequestedReps) {
  ExperimentConfig config;
  config.kernel = Kernel::kOuter;
  config.strategy = "DynamicOuter";
  config.n = 30;
  config.p = 6;
  config.reps = 4;
  const ExperimentResult result = run_experiment(config);
  EXPECT_EQ(result.reps.size(), 4u);
  EXPECT_EQ(result.normalized.count, 4u);
  EXPECT_GT(result.normalized.mean, 1.0);
  EXPECT_GE(result.normalized.max, result.normalized.mean);
  EXPECT_LE(result.normalized.min, result.normalized.mean);
}

TEST(RunExperiment, RejectsZeroReps) {
  ExperimentConfig config;
  config.reps = 0;
  EXPECT_THROW(run_experiment(config), std::invalid_argument);
}

TEST(RunExperiment, MatmulTwoPhaseTracksAnalysis) {
  // The core reproduction claim on a small instance: measured
  // normalized volume within a few percent of the analysis.
  ExperimentConfig config;
  config.kernel = Kernel::kMatmul;
  config.strategy = "DynamicMatrix2Phases";
  config.n = 20;
  config.p = 30;
  config.reps = 3;
  const ExperimentResult result = run_experiment(config);
  EXPECT_NEAR(result.normalized.mean, result.analysis_ratio.mean,
              0.15 * result.analysis_ratio.mean);
}

TEST(RunExperiment, DynScenarioRuns) {
  ExperimentConfig config;
  config.kernel = Kernel::kOuter;
  config.strategy = "DynamicOuter2Phases";
  config.n = 30;
  config.p = 6;
  config.reps = 2;
  config.scenario = named_scenario("dyn.20");
  const ExperimentResult result = run_experiment(config);
  EXPECT_GT(result.normalized.mean, 1.0);
  // Dynamic speeds: the final speed differs from the base draw.
  bool changed = false;
  for (const auto& rep : result.reps) {
    for (std::size_t k = 0; k < rep.speeds.size(); ++k) {
      if (std::abs(rep.sim.workers[k].final_speed - rep.speeds[k]) > 1e-9) {
        changed = true;
      }
    }
  }
  EXPECT_TRUE(changed);
}

TEST(RunExperiment, AnalysisRatioPositiveForAllStrategies) {
  for (const char* name :
       {"RandomOuter", "SortedOuter", "DynamicOuter", "DynamicOuter2Phases"}) {
    ExperimentConfig config;
    config.kernel = Kernel::kOuter;
    config.strategy = name;
    config.n = 20;
    config.p = 4;
    config.reps = 2;
    const ExperimentResult result = run_experiment(config);
    EXPECT_GT(result.analysis_ratio.mean, 1.0) << name;
  }
}

TEST(RunExperiment, BitIdenticalAcrossParallelism) {
  // The determinism contract of the parallel replication engine:
  // summaries and per-rep outcome ordering do not depend on the thread
  // count (1, 2, hardware).
  ExperimentConfig config;
  config.kernel = Kernel::kOuter;
  config.strategy = "DynamicOuter2Phases";
  config.n = 24;
  config.p = 5;
  config.reps = 12;
  config.seed = 77;
  config.parallelism = 1;
  const ExperimentResult serial = run_experiment(config);
  EXPECT_EQ(serial.rep_parallelism, 1u);

  for (const std::uint32_t threads :
       {2u, std::max(2u, parallel_budget_capacity())}) {
    config.parallelism = threads;
    const ExperimentResult parallel = run_experiment(config);
    EXPECT_EQ(parallel.normalized.mean, serial.normalized.mean);
    EXPECT_EQ(parallel.normalized.stddev, serial.normalized.stddev);
    EXPECT_EQ(parallel.normalized.min, serial.normalized.min);
    EXPECT_EQ(parallel.normalized.max, serial.normalized.max);
    EXPECT_EQ(parallel.makespan.mean, serial.makespan.mean);
    EXPECT_EQ(parallel.makespan.stddev, serial.makespan.stddev);
    EXPECT_EQ(parallel.finish_spread.mean, serial.finish_spread.mean);
    ASSERT_EQ(parallel.reps.size(), serial.reps.size());
    for (std::size_t r = 0; r < serial.reps.size(); ++r) {
      EXPECT_EQ(parallel.reps[r].sim.total_blocks,
                serial.reps[r].sim.total_blocks);
      EXPECT_EQ(parallel.reps[r].speeds, serial.reps[r].speeds);
      EXPECT_EQ(parallel.reps[r].normalized, serial.reps[r].normalized);
    }
  }
}

TEST(RunExperiment, FixedListScenarioReplaysTheListInEveryRep) {
  // The single-draw figures (2, 6, 11) share one FixedListSpeeds across
  // parallel reps: every rep must get the same platform, however the
  // reps interleave and whether or not p is a multiple of the list.
  ExperimentConfig config;
  config.kernel = Kernel::kOuter;
  config.strategy = "DynamicOuter2Phases";
  config.n = 20;
  config.p = 4;
  config.reps = 12;
  config.scenario = Scenario{
      "fixed", std::make_shared<FixedListSpeeds>(
                   std::vector<double>{10.0, 20.0, 30.0}),
      PerturbationModel{}};
  config.parallelism = 4;
  const ExperimentResult result = run_experiment(config);
  for (const RepOutcome& rep : result.reps) {
    EXPECT_EQ(rep.speeds, (std::vector<double>{10.0, 20.0, 30.0, 10.0}));
  }
}

TEST(RunExperiment, ReportsEngineObservability) {
  ExperimentConfig config;
  config.kernel = Kernel::kOuter;
  config.strategy = "RandomOuter";
  config.n = 20;
  config.p = 4;
  config.reps = 3;
  config.parallelism = 1;
  const ExperimentResult result = run_experiment(config);
  EXPECT_EQ(result.rep_parallelism, 1u);
  EXPECT_GT(result.wall_time_sec, 0.0);
  EXPECT_GT(result.reps_per_sec, 0.0);
}

TEST(RunExperiment, AutoParallelismClaimsBudget) {
  set_parallel_budget_capacity(4);
  ExperimentConfig config;
  config.kernel = Kernel::kOuter;
  config.strategy = "RandomOuter";
  config.n = 20;
  config.p = 4;
  config.reps = 8;
  config.parallelism = 0;
  const ExperimentResult result = run_experiment(config);
  set_parallel_budget_capacity(0);
  EXPECT_EQ(result.rep_parallelism, 4u);
}

TEST(RunExperiment, NestedAutoFallsBackToSerialWhenBudgetDrained) {
  set_parallel_budget_capacity(2);
  {
    const ParallelLease outer(2);  // simulates an enclosing campaign
    ExperimentConfig config;
    config.kernel = Kernel::kOuter;
    config.strategy = "RandomOuter";
    config.n = 20;
    config.p = 4;
    config.reps = 4;
    config.parallelism = 0;
    const ExperimentResult result = run_experiment(config);
    EXPECT_EQ(result.rep_parallelism, 1u);
  }
  set_parallel_budget_capacity(0);
}

TEST(AnalysisRatioFor, MatchesDirectConstruction) {
  const std::vector<double> speeds{10.0, 20.0, 30.0, 40.0};
  const double r = analysis_ratio_for(Kernel::kOuter, 50, speeds, 3.0);
  EXPECT_GT(r, 1.0);
  EXPECT_LT(r, 10.0);
}

}  // namespace
}  // namespace hetsched
