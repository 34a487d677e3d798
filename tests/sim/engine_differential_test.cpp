// Differential check between the two engines: the comm-timed engine
// with a free link (latency 0, bandwidth 1e18) and one task of
// lookahead serves every request at the completion that triggered it,
// exactly as the flat engine does, so it must reproduce the flat
// engine's volume and makespan — under crashes and stragglers too.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "matmul/matmul_factory.hpp"
#include "outer/outer_factory.hpp"
#include "platform/platform.hpp"
#include "sim/engine.hpp"
#include "sim/engine_timed.hpp"

namespace hetsched {
namespace {

struct FaultCase {
  const char* name;
  std::vector<WorkerFault> faults;
  std::uint32_t crashes;
};

std::unique_ptr<Strategy> build(const std::string& name, std::uint32_t p) {
  if (name.find("Outer") != std::string::npos) {
    OuterStrategyOptions options;
    options.phase2_fraction = 0.05;
    return make_outer_strategy(name, OuterConfig{60}, p, 11, options);
  }
  MatmulStrategyOptions options;
  options.phase2_fraction = 0.05;
  return make_matmul_strategy(name, MatmulConfig{16}, p, 11, options);
}

TEST(EngineDifferential, FreeLinkTimedEngineMatchesFlatEngine) {
  const std::uint32_t p = 10;
  Rng speed_rng(3);
  const Platform platform =
      make_platform(UniformIntervalSpeeds(10.0, 100.0), p, speed_rng);
  const std::vector<FaultCase> fault_cases = {
      {"none", {}, 0},
      {"crash", {WorkerFault{1.0, 2, 0.0}}, 1},
      {"straggler", {WorkerFault{1.0, 1, 0.25}}, 0},
  };
  for (const char* name : {"DynamicOuter2Phases", "RandomOuter", "SortedOuter",
                           "DynamicMatrix2Phases", "RandomMatrix"}) {
    for (const FaultCase& fc : fault_cases) {
      SCOPED_TRACE(std::string(name) + " / " + fc.name);
      auto flat_strategy = build(name, p);
      auto timed_strategy = build(name, p);
      SimConfig flat;
      flat.seed = 5;
      flat.faults = fc.faults;
      TimedSimConfig timed;
      timed.seed = 5;
      timed.faults = fc.faults;
      timed.comm.latency = 0.0;
      timed.comm.bandwidth = 1e18;
      timed.lookahead = 1;
      const SimResult a = simulate(*flat_strategy, platform, flat);
      const SimResult b = simulate_timed(*timed_strategy, platform, timed);
      EXPECT_EQ(a.total_tasks_done, b.total_tasks_done);
      EXPECT_EQ(a.total_blocks, b.total_blocks);
      EXPECT_EQ(a.requeued_tasks, b.requeued_tasks);
      EXPECT_EQ(a.makespan, b.makespan);  // bit equality, not a tolerance
      ASSERT_EQ(a.workers.size(), b.workers.size());
      for (std::size_t k = 0; k < a.workers.size(); ++k) {
        EXPECT_EQ(a.workers[k].tasks_done, b.workers[k].tasks_done) << k;
        EXPECT_EQ(a.workers[k].blocks_received, b.workers[k].blocks_received)
            << k;
      }
      // Every fault fires before the run ends, so the grid exercises it.
      EXPECT_EQ(a.crashed_workers, fc.crashes);
      EXPECT_LT(1.0, a.makespan);
    }
  }
}

}  // namespace
}  // namespace hetsched
