#include "obs/instrument.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "core/experiment.hpp"
#include "outer/outer_factory.hpp"
#include "sim/engine.hpp"

namespace hetsched {
namespace {

ExperimentConfig outer_config(const std::string& strategy, std::uint32_t n,
                              std::uint32_t p, std::uint64_t seed) {
  ExperimentConfig config;
  config.kernel = Kernel::kOuter;
  config.strategy = strategy;
  config.n = n;
  config.p = p;
  config.seed = seed;
  return config;
}

std::size_t channel(const TimeSeriesSampler& sampler, const char* name) {
  const auto& names = sampler.channel_names();
  const auto it = std::find(names.begin(), names.end(), name);
  EXPECT_NE(it, names.end()) << name;
  return static_cast<std::size_t>(it - names.begin());
}

// The recorded events carry every count the run's totals are made of:
// assignment batches sum to the tasks and blocks, completions and
// retirements each arrive once.
TEST(InstrumentedRep, RecordedEventsMatchSimResultTotals) {
  const ExperimentConfig config = outer_config("DynamicOuter", 16, 4, 7);
  InstrumentedRep rep;
  run_instrumented_rep(config, derive_stream(config.seed, "rep.0"), {}, rep);

  const std::uint64_t total_tasks = 16ull * 16ull;
  std::uint64_t tasks = 0, blocks = 0;
  for (const auto& event : rep.recording.assignments()) {
    tasks += event.assignment.task_count();
    blocks += event.assignment.block_count();
  }
  EXPECT_EQ(tasks, total_tasks);
  EXPECT_EQ(blocks, rep.outcome.sim.total_blocks);
  EXPECT_EQ(rep.recording.completions().size(), total_tasks);
  EXPECT_EQ(rep.outcome.sim.total_tasks_done, total_tasks);
  // Pure dynamic strategy: no phase switch.
  EXPECT_TRUE(rep.recording.phase_switches().empty());
  // Every worker retires exactly once at the end of a crash-free run.
  EXPECT_EQ(rep.recording.retirements().size(), 4u);
}

TEST(InstrumentedRep, TwoPhaseStrategySwitchesExactlyOnce) {
  ExperimentConfig config = outer_config("DynamicOuter2Phases", 16, 4, 3);
  // Pin the switch point: the auto (homogeneous-beta) threshold rounds
  // to zero tasks at this small scale, which would mean no switch.
  config.phase2_fraction = 0.2;

  InstrumentedRep rep;
  run_instrumented_rep(config, derive_stream(config.seed, "rep.0"), {}, rep);

  ASSERT_EQ(rep.recording.phase_switches().size(), 1u);
  const auto& phase_switch = rep.recording.phase_switches()[0];
  EXPECT_GE(phase_switch.time, 0.0);
  EXPECT_LE(phase_switch.time, rep.outcome.sim.makespan);
  EXPECT_GT(phase_switch.tasks_remaining, 0u);
  EXPECT_LT(phase_switch.tasks_remaining, 16ull * 16ull);

  // The sampled phase channel must step from 1 to 2 and never back.
  const std::size_t phase_ch = channel(rep.sampler, "phase");
  double prev = 0.0;
  for (std::size_t row = 0; row < rep.sampler.num_samples(); ++row) {
    const double phase = rep.sampler.sample_value(row, phase_ch);
    EXPECT_GE(phase, prev);
    prev = phase;
  }
  EXPECT_EQ(prev, 2.0);
}

TEST(InstrumentedRep, SamplerSeriesCoversRunAndIsMonotone) {
  const ExperimentConfig config = outer_config("DynamicOuter", 24, 4, 11);
  InstrumentedRep rep;
  run_instrumented_rep(config, derive_stream(config.seed, "rep.0"), {}, rep);

  const auto unmarked = channel(rep.sampler, "unmarked_fraction");
  const auto completed = channel(rep.sampler, "completed_fraction");
  const auto kmean = channel(rep.sampler, "knowledge.mean");

  ASSERT_GT(rep.sampler.num_samples(), 10u);
  EXPECT_DOUBLE_EQ(rep.sampler.sample_time(rep.sampler.num_samples() - 1),
                   rep.outcome.sim.makespan);
  double prev_unmarked = 1.0, prev_completed = -1.0, prev_k = -1.0;
  for (std::size_t row = 0; row < rep.sampler.num_samples(); ++row) {
    const double u = rep.sampler.sample_value(row, unmarked);
    const double c = rep.sampler.sample_value(row, completed);
    const double k = rep.sampler.sample_value(row, kmean);
    EXPECT_LE(u, prev_unmarked + 1e-12);  // pool only drains
    EXPECT_GE(c, prev_completed);         // completions only grow
    EXPECT_GE(k, prev_k);                 // knowledge only grows
    EXPECT_GE(u, 0.0);
    EXPECT_LE(k, 1.0);
    prev_unmarked = u;
    prev_completed = c;
    prev_k = k;
  }
  EXPECT_EQ(rep.sampler.sample_value(rep.sampler.num_samples() - 1, completed),
            1.0);
  EXPECT_EQ(prev_unmarked, 0.0);
}

// The sink forwards every hook to the recording, and still drives the
// sampler when the recording is switched off.
TEST(InstrumentedRep, ForwardsEveryHookToTheRecording) {
  const ExperimentConfig config = outer_config("DynamicOuter", 8, 2, 5);
  const std::uint64_t rep_seed = derive_stream(config.seed, "rep.0");
  InstrumentedRep rep;
  run_instrumented_rep(config, rep_seed, {}, rep);
  EXPECT_EQ(rep.recording.completions().size(), 64u);
  EXPECT_EQ(rep.recording.retirements().size(), 2u);
  EXPECT_FALSE(rep.recording.assignments().empty());

  InstrumentOptions options;
  options.record_events = false;
  InstrumentedRep bare;
  run_instrumented_rep(config, rep_seed, options, bare);
  EXPECT_TRUE(bare.recording.completions().empty());
  EXPECT_TRUE(bare.recording.assignments().empty());
  ASSERT_EQ(bare.sampler.num_samples(), rep.sampler.num_samples());
  const auto completed = channel(bare.sampler, "completed_fraction");
  EXPECT_EQ(bare.sampler.sample_value(bare.sampler.num_samples() - 1,
                                      completed),
            1.0);
}

// A crash late in a DynamicOuter run requeues tasks that only the
// random fallback can serve. The fallback reaches the recording, stays
// apart from the planned phase switch, and the sampled series still
// covers the whole run.
TEST(InstrumentedRep, FallbackReachesRecordingApartFromPhaseSwitch) {
  ExperimentConfig config = outer_config("DynamicOuter", 12, 3, 5);
  config.faults = {WorkerFault{1.5, 2, 0.0}};
  InstrumentedRep rep;
  run_instrumented_rep(config, derive_stream(config.seed, "rep.0"), {}, rep);

  ASSERT_GT(rep.outcome.sim.requeued_tasks, 0u);
  ASSERT_EQ(rep.recording.fallbacks().size(), 1u);
  EXPECT_GT(rep.recording.fallbacks()[0].tasks_remaining, 0u);
  EXPECT_TRUE(rep.recording.phase_switches().empty());
  EXPECT_DOUBLE_EQ(rep.sampler.sample_time(rep.sampler.num_samples() - 1),
                   rep.outcome.sim.makespan);
  const auto completed = channel(rep.sampler, "completed_fraction");
  EXPECT_EQ(rep.sampler.sample_value(rep.sampler.num_samples() - 1, completed),
            1.0);
}

// The strategy-level observer hooks surface through any plain
// TraceSink attached to the engine.
struct HookCountingSink final : TraceSink {
  std::uint64_t switches = 0;
  std::uint64_t last_remaining = 0;
  double switch_time = -1.0;

  void on_assignment(std::uint32_t, double, const Assignment&) override {}
  void on_completion(std::uint32_t, double, TaskId) override {}
  void on_retire(std::uint32_t, double) override {}
  void on_phase_switch(double now, std::uint64_t remaining) override {
    ++switches;
    switch_time = now;
    last_remaining = remaining;
  }
};

TEST(StrategyObserverHooks, TwoPhaseReportsSwitchOnce) {
  OuterStrategyOptions options;
  options.phase2_fraction = std::exp(-2.0);
  auto strategy = make_outer_strategy("DynamicOuter2Phases", OuterConfig{12},
                                      2, 9, options);
  Platform platform({10.0, 30.0});
  HookCountingSink sink;
  simulate(*strategy, platform, {}, &sink);
  EXPECT_EQ(sink.switches, 1u);
  EXPECT_GE(sink.switch_time, 0.0);
  EXPECT_GT(sink.last_remaining, 0u);
  // The switch happens when ~exp(-beta) of the tasks remain unserved.
  EXPECT_LE(sink.last_remaining,
            static_cast<std::uint64_t>(std::exp(-2.0) * 144.0) + 1);
}

TEST(StrategyObserverHooks, NoObserverMeansNoCost) {
  // Detached run must still work (hooks are skipped, not crashed).
  auto strategy = make_outer_strategy("DynamicOuter", OuterConfig{6}, 2, 2);
  Platform platform({10.0, 10.0});
  const SimResult sim = simulate(*strategy, platform, {}, nullptr);
  EXPECT_EQ(sim.total_tasks_done, 36u);
}

}  // namespace
}  // namespace hetsched
