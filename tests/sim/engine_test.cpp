#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <vector>

namespace hetsched {
namespace {

/// Hands out one task per request from a shared countdown; used to
/// exercise pure demand-driven behaviour.
class CountdownStrategy final : public Strategy {
 public:
  CountdownStrategy(std::uint64_t tasks, std::uint32_t workers,
                    std::uint32_t blocks_per_task = 0)
      : total_(tasks), remaining_(tasks), workers_(workers),
        blocks_per_task_(blocks_per_task) {}

  std::string name() const override { return "Countdown"; }
  std::uint64_t total_tasks() const override { return total_; }
  std::uint64_t unassigned_tasks() const override { return remaining_; }
  std::uint32_t workers() const override { return workers_; }

  using Strategy::on_request;
  bool on_request(std::uint32_t worker, Assignment& out) override {
    out.clear();
    ++requests_[worker];
    if (remaining_ == 0) return false;
    --remaining_;
    out.tasks.push_back(remaining_);
    for (std::uint32_t b = 0; b < blocks_per_task_; ++b) {
      out.blocks.push_back(BlockRef{Operand::kVecA, b, 0});
    }
    return true;
  }

  std::map<std::uint32_t, int> requests_;

 private:
  std::uint64_t total_;
  std::uint64_t remaining_;
  std::uint32_t workers_;
  std::uint32_t blocks_per_task_;
};

/// Replays a scripted list of responses per worker.
class ScriptedStrategy final : public Strategy {
 public:
  explicit ScriptedStrategy(std::uint32_t workers) : scripts_(workers) {}

  void push(std::uint32_t worker, Assignment a) {
    scripts_[worker].push_back(std::move(a));
  }

  std::string name() const override { return "Scripted"; }
  std::uint64_t total_tasks() const override { return 0; }
  std::uint64_t unassigned_tasks() const override { return 0; }
  std::uint32_t workers() const override {
    return static_cast<std::uint32_t>(scripts_.size());
  }

  using Strategy::on_request;
  bool on_request(std::uint32_t worker, Assignment& out) override {
    out.clear();
    auto& script = scripts_[worker];
    if (script.empty()) return false;
    out = std::move(script.front());
    script.pop_front();
    return true;
  }

 private:
  std::vector<std::deque<Assignment>> scripts_;
};

TEST(Engine, SingleWorkerMakespanIsTasksOverSpeed) {
  CountdownStrategy strategy(10, 1);
  Platform platform({2.0});
  const SimResult result = simulate(strategy, platform);
  EXPECT_EQ(result.total_tasks_done, 10u);
  EXPECT_NEAR(result.makespan, 5.0, 1e-9);
  EXPECT_EQ(result.workers[0].tasks_done, 10u);
  EXPECT_NEAR(result.workers[0].busy_time, 5.0, 1e-9);
}

TEST(Engine, DemandDrivenSplitFollowsSpeeds) {
  CountdownStrategy strategy(4000, 2);
  Platform platform({10.0, 30.0});
  const SimResult result = simulate(strategy, platform);
  EXPECT_EQ(result.total_tasks_done, 4000u);
  // The 3x faster worker should take close to 3x the tasks.
  EXPECT_NEAR(static_cast<double>(result.workers[1].tasks_done),
              3.0 * static_cast<double>(result.workers[0].tasks_done),
              0.02 * 4000);
}

TEST(Engine, BlocksAreAccumulated) {
  CountdownStrategy strategy(10, 1, 3);
  Platform platform({1.0});
  const SimResult result = simulate(strategy, platform);
  EXPECT_EQ(result.total_blocks, 30u);
  EXPECT_EQ(result.workers[0].blocks_received, 30u);
}

TEST(Engine, ZeroTaskAssignmentLoopsIntoAnotherRequest) {
  ScriptedStrategy strategy(1);
  Assignment blocks_only;
  blocks_only.blocks.push_back(BlockRef{Operand::kVecA, 0, 0});
  strategy.push(0, blocks_only);
  Assignment with_task;
  with_task.tasks.push_back(7);
  strategy.push(0, with_task);
  Platform platform({1.0});
  const SimResult result = simulate(strategy, platform);
  EXPECT_EQ(result.total_tasks_done, 1u);
  EXPECT_EQ(result.total_blocks, 1u);
}

TEST(Engine, MultiTaskAssignmentsRunSequentially) {
  ScriptedStrategy strategy(1);
  Assignment batch;
  batch.tasks = {1, 2, 3, 4};
  strategy.push(0, batch);
  Platform platform({4.0});
  const SimResult result = simulate(strategy, platform);
  EXPECT_EQ(result.total_tasks_done, 4u);
  EXPECT_NEAR(result.makespan, 1.0, 1e-9);
}

TEST(Engine, TraceSeesEveryEvent) {
  CountdownStrategy strategy(5, 2);
  Platform platform({1.0, 1.0});
  RecordingTrace trace;
  const SimResult result = simulate(strategy, platform, {}, &trace);
  EXPECT_EQ(result.total_tasks_done, 5u);
  EXPECT_EQ(trace.completions().size(), 5u);
  // 5 task assignments + both workers receive a retirement.
  EXPECT_EQ(trace.assignments().size(), 5u);
  EXPECT_EQ(trace.retirements().size(), 2u);
}

TEST(Engine, CompletionTimesAreMonotoneInTrace) {
  CountdownStrategy strategy(100, 3);
  Platform platform({10.0, 20.0, 30.0});
  RecordingTrace trace;
  simulate(strategy, platform, {}, &trace);
  double last = 0.0;
  for (const auto& ev : trace.completions()) {
    EXPECT_GE(ev.time, last - 1e-12);
    last = ev.time;
  }
}

TEST(Engine, MismatchedWorkerCountThrows) {
  CountdownStrategy strategy(10, 2);
  Platform platform({1.0});
  EXPECT_THROW(simulate(strategy, platform), std::invalid_argument);
}

TEST(Engine, WorkerWithNoWorkRetiresCleanly) {
  // Zero tasks: every worker retires on its first request at t=0.
  CountdownStrategy strategy(0, 2);
  Platform platform({1.0, 2.0});
  RecordingTrace trace;
  const SimResult result = simulate(strategy, platform, {}, &trace);
  EXPECT_EQ(result.total_tasks_done, 0u);
  EXPECT_EQ(result.makespan, 0.0);
  EXPECT_EQ(trace.retirements().size(), 2u);
}

TEST(Engine, PerturbationChangesFinalSpeed) {
  CountdownStrategy strategy(1000, 1);
  Platform platform({100.0});
  SimConfig config;
  config.seed = 3;
  config.perturbation = PerturbationModel(20.0);
  const SimResult result = simulate(strategy, platform, config);
  EXPECT_NE(result.workers[0].final_speed, 100.0);
  EXPECT_GE(result.workers[0].final_speed, 25.0);
  EXPECT_LE(result.workers[0].final_speed, 400.0);
}

TEST(Engine, NoPerturbationKeepsSpeed) {
  CountdownStrategy strategy(100, 1);
  Platform platform({100.0});
  const SimResult result = simulate(strategy, platform);
  EXPECT_DOUBLE_EQ(result.workers[0].final_speed, 100.0);
}

TEST(Engine, DeterministicAcrossRuns) {
  SimConfig config;
  config.seed = 11;
  config.perturbation = PerturbationModel(5.0);
  Platform platform({10.0, 20.0, 70.0});
  CountdownStrategy s1(500, 3);
  CountdownStrategy s2(500, 3);
  const SimResult a = simulate(s1, platform, config);
  const SimResult b = simulate(s2, platform, config);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_blocks, b.total_blocks);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(a.workers[k].tasks_done, b.workers[k].tasks_done);
  }
}

TEST(Engine, FinishSpreadZeroForSingleWorker) {
  CountdownStrategy strategy(10, 1);
  Platform platform({1.0});
  const SimResult result = simulate(strategy, platform);
  EXPECT_DOUBLE_EQ(result.finish_spread(), 0.0);
}

TEST(Engine, FinishSpreadSmallForDemandDrivenWorkers) {
  // Demand-driven allocation keeps completion times within one task of
  // each other.
  CountdownStrategy strategy(10000, 4);
  Platform platform({10.0, 25.0, 40.0, 80.0});
  const SimResult result = simulate(strategy, platform);
  EXPECT_LT(result.finish_spread(), 0.01);
}

TEST(Engine, NormalizedVolumeDividesByBound) {
  CountdownStrategy strategy(10, 1, 2);
  Platform platform({1.0});
  const SimResult result = simulate(strategy, platform);
  EXPECT_DOUBLE_EQ(result.normalized_volume(10.0), 2.0);
}

}  // namespace
}  // namespace hetsched
