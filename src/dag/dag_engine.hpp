// Heterogeneous master-worker scheduling of a TaskGraph.
//
// Extends the paper's demand-driven model to dependent tasks: a worker
// requesting work receives one *ready* task chosen by a pluggable
// policy. Data movement follows a coherent-cache model over tiles —
// reading a tile the worker does not hold (at its current version)
// costs one transfer; writing a tile invalidates every other copy.
// Communication is a pure volume, overlapped as in the paper.
//
// Built on sim/event_core.hpp, so the DAG engine supports the same
// experimental apparatus as simulate(): scripted WorkerFault
// crashes (the victim's in-flight task returns to the ready set and its
// tile cache is lost) and stragglers, per-task speed perturbation,
// and TraceSink events (assignments carry the task plus one BlockRef
// per tile actually transferred).
//
// Policies provided:
//   RandomDagPolicy       - uniformly random ready task (the baseline)
//   CriticalPathDagPolicy - max bottom-level (HEFT-style priority)
//   DataAwareDagPolicy    - max locally-cached inputs, bottom-level tie
//                           break (the paper's idea lifted to DAGs)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/dynamic_bitset.hpp"
#include "common/rng.hpp"
#include "dag/task_graph.hpp"
#include "platform/platform.hpp"
#include "platform/speed_model.hpp"
#include "sim/event_core.hpp"

namespace hetsched {

/// What a policy sees when choosing among ready tasks.
struct DagPolicyContext {
  const TaskGraph& graph;
  const std::vector<double>& bottom_levels;
  /// For the requesting worker: valid-tile cache (size = num tiles).
  const DynamicBitset& worker_tiles;
};

class DagPolicy {
 public:
  virtual ~DagPolicy() = default;
  virtual std::string name() const = 0;
  /// Picks an element of `ready` (non-empty) for the requesting worker.
  virtual DagTaskId select(const std::vector<DagTaskId>& ready,
                           const DagPolicyContext& context) = 0;
};

class RandomDagPolicy final : public DagPolicy {
 public:
  explicit RandomDagPolicy(std::uint64_t seed);
  std::string name() const override { return "RandomDag"; }
  DagTaskId select(const std::vector<DagTaskId>& ready,
                   const DagPolicyContext& context) override;

 private:
  Rng rng_;
};

class CriticalPathDagPolicy final : public DagPolicy {
 public:
  std::string name() const override { return "CriticalPathDag"; }
  DagTaskId select(const std::vector<DagTaskId>& ready,
                   const DagPolicyContext& context) override;
};

class DataAwareDagPolicy final : public DagPolicy {
 public:
  std::string name() const override { return "DataAwareDag"; }
  DagTaskId select(const std::vector<DagTaskId>& ready,
                   const DagPolicyContext& context) override;
};

/// Factory: "RandomDag", "CriticalPathDag", "DataAwareDag".
std::unique_ptr<DagPolicy> make_dag_policy(const std::string& name,
                                           std::uint64_t seed);
const std::vector<std::string>& dag_policy_names();

struct DagSimConfig {
  /// Stream seed for the engine's own randomness (speed perturbation).
  std::uint64_t seed = 1;
  /// Per-task speed drift; disabled by default.
  PerturbationModel perturbation{};
  /// Scripted crashes / slowdowns. A crash returns the victim's
  /// in-flight task to the ready set (dependencies stay satisfied) and
  /// drops its tile cache; survivors re-fetch what they miss.
  std::vector<WorkerFault> faults{};
};

/// Unified with the other engines; `blocks_received` counts tile
/// transfers here.
using DagWorkerStats = WorkerSimStats;

struct DagSimResult {
  double makespan = 0.0;
  std::uint64_t total_transfers = 0;  // tile movements (volume)
  std::uint64_t total_tasks_done = 0;
  std::uint64_t requeued_tasks = 0;   // returned to the ready set by crashes
  std::uint32_t crashed_workers = 0;
  std::vector<DagWorkerStats> workers;
  /// Completion order (task ids) — a valid topological execution order,
  /// usable to replay the schedule numerically.
  std::vector<DagTaskId> completion_order;

  /// max(critical path / fastest speed, total work / total speed):
  /// no schedule can beat this.
  static double makespan_lower_bound(const TaskGraph& graph,
                                     const Platform& platform);
};

/// Simulates `graph` on `platform` under `policy`. Every task runs
/// for work/speed time on its worker; ready tasks are handed out
/// demand-driven.
DagSimResult simulate_dag(const TaskGraph& graph, const Platform& platform,
                          DagPolicy& policy, const DagSimConfig& config,
                          TraceSink* trace = nullptr);

/// Convenience overload: default config with `seed`.
DagSimResult simulate_dag(const TaskGraph& graph, const Platform& platform,
                          DagPolicy& policy, std::uint64_t seed = 1);

}  // namespace hetsched
