// Fault-injection parity for a comm-timed link (mirrors
// sim/fault_test.cpp): the one engine gives a timed link the same
// crash/straggler semantics as the free link — plus the timed
// twist that runnable, in-transit and in-flight tasks are all requeued
// while link time already spent stays spent.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "obs/analyze.hpp"
#include "obs/instrument.hpp"
#include "outer/outer_factory.hpp"
#include "platform/platform.hpp"
#include "sim/engine.hpp"
#include "sim/engine_timed.hpp"
#include "sim/trace.hpp"

namespace hetsched {
namespace {

TimedSimConfig with_faults(std::vector<WorkerFault> faults) {
  TimedSimConfig config;
  config.faults = std::move(faults);
  return config;
}

TEST(TimedFaultInjection, CrashedWorkerTasksAreRequeuedAndCompleted) {
  auto strategy = make_outer_strategy("RandomOuter", OuterConfig{30}, 3, 1);
  Platform platform({20.0, 30.0, 50.0});
  RecordingTrace trace;
  const SimResult result = simulate_timed(
      *strategy, platform, with_faults({WorkerFault{0.5, 2, 0.0}}), &trace);
  EXPECT_EQ(result.total_tasks_done, 900u);
  EXPECT_EQ(result.crashed_workers, 1u);
  EXPECT_GE(result.requeued_tasks, 1u);
  // Every task completes exactly once despite the crash.
  std::set<TaskId> completed;
  for (const auto& ev : trace.completions()) {
    EXPECT_TRUE(completed.insert(ev.task).second);
  }
  EXPECT_EQ(completed.size(), 900u);
  // The dead worker does nothing after t = 0.5 (stale in-flight message
  // and task-done events are dropped by the epoch check).
  for (const auto& ev : trace.completions()) {
    if (ev.worker == 2) {
      EXPECT_LE(ev.time, 0.5 + 1e-9);
    }
  }
}

TEST(TimedFaultInjection, CrashWorksForDataAwareStrategies) {
  for (const char* name :
       {"DynamicOuter", "DynamicOuter2Phases", "SortedOuter"}) {
    OuterStrategyOptions options;
    options.phase2_fraction = 0.05;
    auto strategy = make_outer_strategy(name, OuterConfig{24}, 4, 2, options);
    Platform platform({10.0, 20.0, 40.0, 80.0});
    const SimResult result = simulate_timed(
        *strategy, platform, with_faults({WorkerFault{0.2, 3, 0.0}}));
    EXPECT_EQ(result.total_tasks_done, 576u) << name;
    EXPECT_EQ(result.crashed_workers, 1u) << name;
  }
}

TEST(TimedFaultInjection, InTransitWorkOfCrashedWorkerIsRecovered) {
  // A deep lookahead keeps several assignments on the wire or queued on
  // the victim; all of them must come back through requeue.
  auto strategy = make_outer_strategy("RandomOuter", OuterConfig{20}, 2, 3);
  Platform platform({40.0, 40.0});
  TimedSimConfig config = with_faults({WorkerFault{0.3, 1, 0.0}});
  config.lookahead = 8;
  const SimResult result = simulate_timed(*strategy, platform, config);
  EXPECT_EQ(result.total_tasks_done, 400u);
  EXPECT_EQ(result.crashed_workers, 1u);
  EXPECT_GE(result.requeued_tasks, 1u);
  EXPECT_EQ(strategy->unassigned_tasks(), 0u);
}

TEST(TimedFaultInjection, MultipleCrashesSurvivedByLastWorker) {
  auto strategy = make_outer_strategy("RandomOuter", OuterConfig{16}, 3, 4);
  Platform platform({30.0, 30.0, 30.0});
  const SimResult result = simulate_timed(
      *strategy, platform,
      with_faults({WorkerFault{0.1, 0, 0.0}, WorkerFault{0.2, 1, 0.0}}));
  EXPECT_EQ(result.total_tasks_done, 256u);
  EXPECT_EQ(result.crashed_workers, 2u);
  EXPECT_GT(result.workers[2].tasks_done, 200u);
}

TEST(TimedFaultInjection, LateCrashAfterRetirementIsHarmless) {
  auto strategy = make_outer_strategy("RandomOuter", OuterConfig{10}, 2, 5);
  Platform platform({50.0, 50.0});
  const SimResult result = simulate_timed(
      *strategy, platform, with_faults({WorkerFault{100.0, 0, 0.0}}));
  EXPECT_EQ(result.total_tasks_done, 100u);
  EXPECT_EQ(result.requeued_tasks, 0u);
}

TEST(TimedFaultInjection, StragglerSlowsButCompletes) {
  auto strategy = make_outer_strategy("RandomOuter", OuterConfig{30}, 2, 7);
  Platform platform({50.0, 50.0});
  const SimResult slowed = simulate_timed(
      *strategy, platform, with_faults({WorkerFault{0.1, 1, 0.1}}));
  EXPECT_EQ(slowed.total_tasks_done, 900u);
  // Demand-driven balancing shifts work to the healthy worker.
  EXPECT_GT(slowed.workers[0].tasks_done, 2u * slowed.workers[1].tasks_done);
  EXPECT_EQ(slowed.crashed_workers, 0u);
}

TEST(TimedFaultInjection, PerturbationDriftsSpeeds) {
  auto strategy = make_outer_strategy("RandomOuter", OuterConfig{20}, 2, 8);
  Platform platform({40.0, 40.0});
  TimedSimConfig config;
  config.perturbation = PerturbationModel(10.0);
  const SimResult result = simulate_timed(*strategy, platform, config);
  EXPECT_EQ(result.total_tasks_done, 400u);
  // With +-10% per-task drift the final speeds have left the base value.
  EXPECT_NE(result.workers[0].final_speed, 40.0);
}

TEST(TimedFaultInjection, WorkStealingCannotRequeueAndSaysSo) {
  auto strategy =
      make_outer_strategy("WorkStealingOuter", OuterConfig{16}, 2, 8);
  Platform platform({30.0, 30.0});
  EXPECT_THROW(simulate_timed(*strategy, platform,
                              with_faults({WorkerFault{0.1, 0, 0.0}})),
               std::invalid_argument);
}

TEST(TimedFaultInjection, RejectsMalformedFaultsViaSharedValidation) {
  // Same EventCore::validate_faults path as the flat engine.
  auto strategy = make_outer_strategy("RandomOuter", OuterConfig{8}, 2, 9);
  Platform platform({10.0, 10.0});
  EXPECT_THROW(simulate_timed(*strategy, platform,
                              with_faults({WorkerFault{0.1, 5, 0.0}})),
               std::invalid_argument);
  EXPECT_THROW(simulate_timed(*strategy, platform,
                              with_faults({WorkerFault{0.1, 0, 1.5}})),
               std::invalid_argument);
  EXPECT_THROW(simulate_timed(*strategy, platform,
                              with_faults({WorkerFault{-1.0, 0, 0.0}})),
               std::invalid_argument);
}

// The event file is the run's one record: written and read back, it
// reproduces a crash + straggler timed run's totals and every worker's
// engine stats exactly.
TEST(TimedFaultInjection, EventFileRoundTripsRunTotals) {
  ExperimentConfig config;
  config.kernel = Kernel::kOuter;
  config.strategy = "DynamicOuter";
  config.n = 16;
  config.p = 3;
  config.seed = 10;
  config.timed = true;
  config.faults = {WorkerFault{0.1, 1, 0.5}, WorkerFault{0.2, 0, 0.0}};
  InstrumentedRep rep;
  run_instrumented_rep(config, derive_stream(config.seed, "rep.0"), {}, rep);
  const SimResult& sim = rep.outcome.sim;
  ASSERT_EQ(sim.crashed_workers, 1u);
  ASSERT_GT(sim.requeued_tasks, 0u);
  ASSERT_GT(sim.link_busy_time, 0.0);

  std::stringstream file;
  write_trace_jsonl(file, rep.recording, trace_meta(config, rep),
                    &rep.sampler);
  const TraceAnalysis analysis = analyze_trace_stream(file);
  const TraceMeta& meta = analysis.meta;
  EXPECT_EQ(meta.requeued_tasks, sim.requeued_tasks);
  EXPECT_EQ(meta.crashed_workers, sim.crashed_workers);
  EXPECT_EQ(meta.link_busy_time, sim.link_busy_time);
  ASSERT_EQ(meta.workers.size(), sim.workers.size());
  std::uint64_t messages = 0;
  for (std::size_t k = 0; k < sim.workers.size(); ++k) {
    const WorkerSimStats& want = sim.workers[k];
    const TraceMeta::WorkerStats& got = meta.workers[k];
    EXPECT_EQ(got.tasks, want.tasks_done) << k;
    EXPECT_EQ(got.blocks, want.blocks_received) << k;
    EXPECT_EQ(got.messages, want.messages_received) << k;
    EXPECT_EQ(got.busy, want.busy_time) << k;
    EXPECT_EQ(got.finish, want.finish_time) << k;
    EXPECT_EQ(got.starved, want.starved_time) << k;
    messages += got.messages;
  }
  EXPECT_GT(messages, 0u);

  // The analysis report's run section carries the totals on.
  std::ostringstream json;
  write_analysis_json(json, analysis);
  EXPECT_NE(json.str().find("\"requeued_tasks\": " +
                            std::to_string(sim.requeued_tasks)),
            std::string::npos);
  EXPECT_NE(json.str().find("\"crashed_workers\": 1"), std::string::npos);
}

TEST(TimedFaultInjection, FlatAndTimedAgreeOnFaultAccounting) {
  // Same strategy seed, same crash script: the engines schedule
  // differently (comm timing) but must agree on conservation — all
  // tasks complete, exactly one worker dies.
  const std::vector<WorkerFault> faults = {WorkerFault{0.25, 1, 0.0}};
  auto flat = make_outer_strategy("DynamicOuter", OuterConfig{20}, 3, 11);
  Platform platform({20.0, 30.0, 50.0});
  SimConfig flat_config;
  flat_config.faults = faults;
  const SimResult a = simulate(*flat, platform, flat_config);

  auto timed = make_outer_strategy("DynamicOuter", OuterConfig{20}, 3, 11);
  const SimResult b =
      simulate_timed(*timed, platform, with_faults(faults));
  EXPECT_EQ(a.total_tasks_done, b.total_tasks_done);
  EXPECT_EQ(a.crashed_workers, b.crashed_workers);
  // (Makespans are close but not ordered: the comm timing reshuffles
  // which tasks land on the victim, so the requeued sets differ.)
}

}  // namespace
}  // namespace hetsched
