// Fault-injection parity for the DAG engine (mirrors
// sim/fault_test.cpp): the shared EventCore gives simulate_dag the same
// crash/straggler semantics as the flat engines. A crash returns the
// victim's in-flight task to the ready set and drops its tile cache;
// the dependency structure must still execute every task exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

#include "dag/cholesky.hpp"
#include "dag/dag_engine.hpp"
#include "obs/analyze.hpp"
#include "platform/platform.hpp"
#include "sim/trace.hpp"

namespace hetsched {
namespace {

DagSimConfig with_faults(std::vector<WorkerFault> faults) {
  DagSimConfig config;
  config.faults = std::move(faults);
  return config;
}

bool is_topological(const TaskGraph& graph,
                    const std::vector<DagTaskId>& order) {
  std::vector<char> done(graph.num_tasks(), 0);
  for (const DagTaskId t : order) {
    for (const DagTaskId dep : graph.task(t).deps) {
      if (!done[dep]) return false;
    }
    done[t] = 1;
  }
  return true;
}

TEST(DagFaultInjection, CrashedWorkerTaskReturnsToReadySetAndCompletes) {
  const CholeskyGraph ch = build_cholesky_graph(8);
  Platform platform({20.0, 30.0, 50.0});
  CriticalPathDagPolicy policy;
  RecordingTrace trace;
  const DagSimResult result =
      simulate_dag(ch.graph, platform, policy,
                   with_faults({WorkerFault{0.05, 2, 0.0}}), &trace);
  EXPECT_EQ(result.total_tasks_done, ch.graph.num_tasks());
  EXPECT_EQ(result.crashed_workers, 1u);
  EXPECT_GE(result.requeued_tasks, 1u);
  // Every task completes exactly once and in dependency order.
  std::set<TaskId> completed;
  for (const auto& ev : trace.completions()) {
    EXPECT_TRUE(completed.insert(ev.task).second);
  }
  EXPECT_EQ(completed.size(), ch.graph.num_tasks());
  EXPECT_EQ(result.completion_order.size(), ch.graph.num_tasks());
  EXPECT_TRUE(is_topological(ch.graph, result.completion_order));
  // The dead worker does nothing after the crash.
  for (const auto& ev : trace.completions()) {
    if (ev.worker == 2) {
      EXPECT_LE(ev.time, 0.05 + 1e-9);
    }
  }
}

TEST(DagFaultInjection, CrashWorksForEveryPolicy) {
  const CholeskyGraph ch = build_cholesky_graph(6);
  Platform platform({10.0, 20.0, 40.0, 80.0});
  for (const auto& name : dag_policy_names()) {
    auto policy = make_dag_policy(name, 5);
    const DagSimResult result = simulate_dag(
        ch.graph, platform, *policy, with_faults({WorkerFault{0.02, 3, 0.0}}));
    EXPECT_EQ(result.total_tasks_done, ch.graph.num_tasks()) << name;
    EXPECT_EQ(result.crashed_workers, 1u) << name;
    EXPECT_TRUE(is_topological(ch.graph, result.completion_order)) << name;
  }
}

TEST(DagFaultInjection, CrashLosesTileCache) {
  // Re-running the crashed schedule costs extra transfers: the victim's
  // cache is gone and survivors must re-fetch what they need.
  const CholeskyGraph ch = build_cholesky_graph(10);
  Platform platform({25.0, 25.0, 25.0});
  CriticalPathDagPolicy clean_policy;
  const DagSimResult clean = simulate_dag(ch.graph, platform, clean_policy, 6);
  CriticalPathDagPolicy faulty_policy;
  const DagSimResult faulty =
      simulate_dag(ch.graph, platform, faulty_policy,
                   with_faults({WorkerFault{0.1, 0, 0.0}}));
  EXPECT_EQ(clean.total_tasks_done, faulty.total_tasks_done);
  EXPECT_GE(faulty.makespan, clean.makespan);  // two survivors finish it
}

TEST(DagFaultInjection, LateCrashAfterCompletionIsHarmless) {
  const CholeskyGraph ch = build_cholesky_graph(4);
  Platform platform({50.0, 50.0});
  CriticalPathDagPolicy policy;
  const DagSimResult result = simulate_dag(
      ch.graph, platform, policy, with_faults({WorkerFault{1000.0, 0, 0.0}}));
  EXPECT_EQ(result.total_tasks_done, ch.graph.num_tasks());
  EXPECT_EQ(result.requeued_tasks, 0u);
}

TEST(DagFaultInjection, AllWorkersCrashedLeavesGraphUnfinished) {
  // With every worker dead the run drains without completing; the
  // stats report the shortfall instead of throwing.
  const CholeskyGraph ch = build_cholesky_graph(8);
  Platform platform({30.0, 30.0});
  CriticalPathDagPolicy policy;
  const DagSimResult result = simulate_dag(
      ch.graph, platform, policy,
      with_faults({WorkerFault{0.01, 0, 0.0}, WorkerFault{0.02, 1, 0.0}}));
  EXPECT_EQ(result.crashed_workers, 2u);
  EXPECT_LT(result.total_tasks_done, ch.graph.num_tasks());
}

TEST(DagFaultInjection, StragglerShiftsWorkAndCompletes) {
  const CholeskyGraph ch = build_cholesky_graph(10);
  Platform platform({50.0, 50.0});
  CriticalPathDagPolicy policy;
  const DagSimResult result = simulate_dag(
      ch.graph, platform, policy, with_faults({WorkerFault{0.01, 1, 0.05}}));
  EXPECT_EQ(result.total_tasks_done, ch.graph.num_tasks());
  EXPECT_EQ(result.crashed_workers, 0u);
  // Demand-driven hand-out shifts work to the healthy worker.
  EXPECT_GT(result.workers[0].tasks_done, result.workers[1].tasks_done);
}

TEST(DagFaultInjection, PerturbationDriftsSpeeds) {
  const CholeskyGraph ch = build_cholesky_graph(8);
  Platform platform({40.0, 40.0});
  CriticalPathDagPolicy policy;
  DagSimConfig config;
  config.perturbation = PerturbationModel(10.0);
  const DagSimResult result = simulate_dag(ch.graph, platform, policy, config);
  EXPECT_EQ(result.total_tasks_done, ch.graph.num_tasks());
  EXPECT_NE(result.workers[0].final_speed, 40.0);
}

TEST(DagFaultInjection, RejectsMalformedFaultsViaSharedValidation) {
  // Same EventCore::validate_faults path as the flat engines.
  const CholeskyGraph ch = build_cholesky_graph(4);
  Platform platform({10.0, 10.0});
  CriticalPathDagPolicy policy;
  EXPECT_THROW(simulate_dag(ch.graph, platform, policy,
                            with_faults({WorkerFault{0.1, 5, 0.0}})),
               std::invalid_argument);
  EXPECT_THROW(simulate_dag(ch.graph, platform, policy,
                            with_faults({WorkerFault{0.1, 0, 1.5}})),
               std::invalid_argument);
  EXPECT_THROW(simulate_dag(ch.graph, platform, policy,
                            with_faults({WorkerFault{-1.0, 0, 0.0}})),
               std::invalid_argument);
}

// Written to the event file and read back, a crash + straggler DAG run
// keeps its totals and every worker's engine stats exactly.
TEST(DagFaultInjection, EventFileRoundTripsRunTotals) {
  const CholeskyGraph ch = build_cholesky_graph(6);
  Platform platform({30.0, 60.0, 45.0});
  CriticalPathDagPolicy policy;
  RecordingTrace trace;
  const DagSimConfig config =
      with_faults({WorkerFault{0.02, 2, 0.5}, WorkerFault{0.05, 0, 0.0}});
  const DagSimResult result =
      simulate_dag(ch.graph, platform, policy, config, &trace);
  ASSERT_EQ(result.crashed_workers, 1u);

  TraceMeta meta;
  meta.engine = "dag";
  meta.strategy = policy.name();
  meta.n = ch.tiles;
  meta.p = 3;
  meta.makespan = result.makespan;
  meta.speeds = platform.speeds();
  meta.requeued_tasks = result.requeued_tasks;
  meta.crashed_workers = result.crashed_workers;
  for (const auto& w : result.workers) {
    meta.workers.push_back({w.tasks_done, w.blocks_received,
                            w.messages_received, w.busy_time, w.finish_time,
                            w.starved_time});
  }
  std::stringstream file;
  write_trace_jsonl(file, trace, meta);
  const TraceMeta got = analyze_trace_stream(file).meta;

  EXPECT_EQ(got.requeued_tasks, result.requeued_tasks);
  EXPECT_EQ(got.crashed_workers, 1u);
  EXPECT_EQ(got.link_busy_time, 0.0);
  ASSERT_EQ(got.workers.size(), result.workers.size());
  for (std::size_t k = 0; k < result.workers.size(); ++k) {
    const WorkerSimStats& want = result.workers[k];
    EXPECT_EQ(got.workers[k].tasks, want.tasks_done) << k;
    EXPECT_EQ(got.workers[k].blocks, want.blocks_received) << k;
    EXPECT_EQ(got.workers[k].messages, want.messages_received) << k;
    EXPECT_EQ(got.workers[k].busy, want.busy_time) << k;
    EXPECT_EQ(got.workers[k].finish, want.finish_time) << k;
    EXPECT_EQ(got.workers[k].starved, want.starved_time) << k;
  }
}

TEST(DagFaultInjection, FaultedRunsAreDeterministic) {
  const CholeskyGraph ch = build_cholesky_graph(8);
  Platform platform({20.0, 30.0, 50.0});
  DagSimConfig config = with_faults({WorkerFault{0.05, 1, 0.0}});
  config.perturbation = PerturbationModel(5.0);
  CriticalPathDagPolicy p1, p2;
  const DagSimResult a = simulate_dag(ch.graph, platform, p1, config);
  const DagSimResult b = simulate_dag(ch.graph, platform, p2, config);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_transfers, b.total_transfers);
  EXPECT_EQ(a.completion_order, b.completion_order);
}

}  // namespace
}  // namespace hetsched
