// Differential checks on the engine's ways of running one schedule.
//
// - On any link and lookahead, the per-task path (a trace attached:
//   one event per completion) and the batched path (no trace, no
//   perturbation: one event per worker action) must report the same
//   run bit for bit, link statistics included — under crashes and
//   stragglers too, where the batched path splits its runs.
// - With a free link and one task of lookahead every request is served
//   at the completion that triggered it, so the serial-uplink message
//   path with a near-free link (latency 0, bandwidth 1e18, lookahead 1)
//   must match the free link as well.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "matmul/matmul_factory.hpp"
#include "outer/outer_factory.hpp"
#include "platform/platform.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace hetsched {
namespace {

struct FaultCase {
  const char* name;
  std::vector<WorkerFault> faults;
  std::uint32_t crashes;
};

const std::vector<FaultCase>& fault_cases() {
  static const std::vector<FaultCase> cases = {
      {"none", {}, 0},
      {"crash", {WorkerFault{1.0, 2, 0.0}}, 1},
      {"straggler", {WorkerFault{1.0, 1, 0.25}}, 0},
      {"straggler+crash",
       {WorkerFault{0.5, 4, 0.5}, WorkerFault{1.0, 4, 0.0}}, 1},
  };
  return cases;
}

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

Platform test_platform(std::uint32_t p) {
  Rng speed_rng(3);
  return make_platform(UniformIntervalSpeeds(10.0, 100.0), p, speed_rng);
}

// Everything but the link statistics, which a free and a near-free
// link report differently.
void expect_same_schedule(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.total_tasks_done, b.total_tasks_done);
  EXPECT_EQ(a.total_blocks, b.total_blocks);
  EXPECT_EQ(a.requeued_tasks, b.requeued_tasks);
  EXPECT_EQ(a.crashed_workers, b.crashed_workers);
  EXPECT_EQ(a.makespan, b.makespan);  // bit equality, not a tolerance
  ASSERT_EQ(a.workers.size(), b.workers.size());
  for (std::size_t k = 0; k < a.workers.size(); ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(a.workers[k].tasks_done, b.workers[k].tasks_done);
    EXPECT_EQ(a.workers[k].blocks_received, b.workers[k].blocks_received);
    EXPECT_EQ(a.workers[k].busy_time, b.workers[k].busy_time);
    EXPECT_EQ(a.workers[k].finish_time, b.workers[k].finish_time);
    EXPECT_EQ(a.workers[k].final_speed, b.workers[k].final_speed);
  }
}

// Every reported field, link statistics included.
void expect_same_run(const SimResult& a, const SimResult& b) {
  expect_same_schedule(a, b);
  EXPECT_EQ(a.link_busy_time, b.link_busy_time);
  ASSERT_EQ(a.workers.size(), b.workers.size());
  for (std::size_t k = 0; k < a.workers.size(); ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(a.workers[k].messages_received, b.workers[k].messages_received);
    EXPECT_EQ(a.workers[k].starved_time, b.workers[k].starved_time);
  }
}

// The free link has no communication timing to report.
void expect_no_link_stats(const SimResult& r) {
  EXPECT_EQ(r.link_busy_time, 0.0);
  for (const WorkerSimStats& w : r.workers) {
    EXPECT_EQ(w.messages_received, 0u);
    EXPECT_EQ(w.starved_time, 0.0);
  }
}

TEST(EngineDifferential, FreeLinkTimedEngineMatchesFlatEngine) {
  const std::uint32_t p = 10;
  const Platform platform = test_platform(p);
  for (const char* name : {"DynamicOuter2Phases", "RandomOuter", "SortedOuter",
                           "DynamicMatrix2Phases", "RandomMatrix"}) {
    // The first three scripts only: 1e18 is a finite link, and under
    // straggler+crash one of its ~1e-17 transfer times rounds a
    // DynamicMatrix2Phases finish time up by one ulp.
    for (std::size_t c = 0; c < 3; ++c) {
      const FaultCase& fc = fault_cases()[c];
      SCOPED_TRACE(std::string(name) + " / " + fc.name);
      auto flat_strategy = build(name, p);
      auto timed_strategy = build(name, p);
      SimConfig flat;
      flat.seed = 5;
      flat.faults = fc.faults;
      SimConfig timed = flat;
      timed.comm = CommModel{1e18, 0.0};
      const SimResult a = simulate(*flat_strategy, platform, flat);
      const SimResult b = simulate(*timed_strategy, platform, timed);
      expect_same_schedule(a, b);
      expect_no_link_stats(a);
      // Every fault fires before the run ends, so the grid exercises it.
      EXPECT_EQ(a.crashed_workers, fc.crashes);
      EXPECT_LT(1.0, a.makespan);
    }
  }
}

TEST(EngineDifferential, TracedPerTaskPathMatchesBatchedPath) {
  const std::uint32_t p = 10;
  const Platform platform = test_platform(p);
  for (const char* name :
       {"DynamicOuter", "DynamicOuter2Phases", "RandomOuter", "SortedOuter",
        "DynamicMatrix", "DynamicMatrix2Phases", "RandomMatrix"}) {
    for (const FaultCase& fc : fault_cases()) {
      SCOPED_TRACE(std::string(name) + " / " + fc.name);
      auto batched_strategy = build(name, p);
      auto traced_strategy = build(name, p);
      SimConfig config;
      config.seed = 5;
      config.faults = fc.faults;
      RecordingTrace trace;
      const SimResult a = simulate(*batched_strategy, platform, config);
      const SimResult b = simulate(*traced_strategy, platform, config, &trace);
      expect_same_run(a, b);
      expect_no_link_stats(a);
      expect_no_link_stats(b);
      EXPECT_EQ(a.crashed_workers, fc.crashes);
      EXPECT_LT(1.0, a.makespan);
    }
  }
}

TEST(EngineDifferential, TracedPerTaskPathMatchesBatchedPathOnFiniteLinks) {
  const std::uint32_t p = 10;
  const Platform platform = test_platform(p);
  // A link that mostly hides behind computation, and one whose latency
  // exceeds every task time, so most completions fall while the
  // worker's next request is on the wire. The free link rides along
  // for its deeper lookaheads.
  const std::vector<CommModel> links = {CommModel{200.0, 0.001},
                                        CommModel{2000.0, 0.05},
                                        CommModel::free()};
  for (const char* name :
       {"DynamicOuter", "DynamicOuter2Phases", "RandomOuter", "SortedOuter",
        "DynamicMatrix", "DynamicMatrix2Phases", "RandomMatrix"}) {
    for (const CommModel& link : links) {
      for (const std::uint32_t lookahead : {1u, 2u, 4u}) {
        for (const FaultCase& fc : fault_cases()) {
          SCOPED_TRACE(std::string(name) + " / latency " +
                       std::to_string(link.latency) + " / lookahead " +
                       std::to_string(lookahead) + " / " + fc.name);
          auto batched_strategy = build(name, p);
          auto traced_strategy = build(name, p);
          SimConfig config;
          config.seed = 5;
          config.comm = link;
          config.lookahead = lookahead;
          config.faults = fc.faults;
          RecordingTrace trace;
          const SimResult a = simulate(*batched_strategy, platform, config);
          const SimResult b =
              simulate(*traced_strategy, platform, config, &trace);
          expect_same_run(a, b);
          EXPECT_EQ(a.crashed_workers, fc.crashes);
          EXPECT_LT(1.0, a.makespan);
          if (!link.is_free()) {
            EXPECT_LT(0.0, a.link_busy_time);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace hetsched
