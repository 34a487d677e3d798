// Self-tuning two-phase matrix multiplication (no beta, no model).
//
// The matmul economics differ from the outer product: a data-aware
// extension at extent y costs 3(2y+1) blocks, so a fixed tasks-per-step
// threshold cannot work. The kernel-generic quantity is *blocks per
// enabled task*: the data-aware phase starts expensive (3 blocks for 1
// task), gets cheap as knowledge compounds (~2/y), then degrades again
// as competition empties the worker's shell. The random phase pays at
// most 3 blocks per task (less with cached corners), so data-aware
// acquisition stops paying once its windowed blocks-per-task climbs
// back above `threshold` (default 2.5). The rule arms after the ratio
// first drops below 0.8 * threshold, which skips the startup transient.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/rng.hpp"
#include "common/swap_remove_pool.hpp"
#include "matmul/matmul_problem.hpp"
#include "sim/strategy.hpp"

namespace hetsched {

class AdaptiveMatmulStrategy final : public Strategy {
 public:
  AdaptiveMatmulStrategy(MatmulConfig config, std::uint32_t workers,
                         std::uint64_t seed, double threshold = 2.5,
                         std::uint32_t window = 0);

  std::string name() const override { return "AdaptiveMatmul"; }
  std::uint64_t total_tasks() const override { return config_.total_tasks(); }
  std::uint64_t unassigned_tasks() const override { return pool_.size(); }
  std::uint32_t workers() const override {
    return static_cast<std::uint32_t>(state_.size());
  }

  using Strategy::on_request;
  bool on_request(std::uint32_t worker, Assignment& out) override;

  bool requeue(const std::vector<TaskId>& tasks) override {
    bool all_inserted = true;
    for (const TaskId id : tasks) all_inserted &= pool_.insert(id);
    return all_inserted;
  }

  bool switched() const noexcept { return switched_; }
  std::uint64_t tasks_at_switch() const noexcept { return tasks_at_switch_; }

 private:
  struct WorkerState {
    std::vector<std::uint32_t> known_i, known_j, known_k;
    std::vector<std::uint32_t> unknown_i, unknown_j, unknown_k;
    MatmulWorkerBlocks blocks;
  };

  struct StepCost {
    std::uint32_t blocks;
    std::uint32_t tasks;
  };

  bool dynamic_request(std::uint32_t worker, Assignment& out);
  bool random_request(std::uint32_t worker, Assignment& out);
  void record_step(std::size_t blocks, std::size_t tasks);

  MatmulConfig config_;
  SwapRemovePool pool_;
  std::vector<WorkerState> state_;
  Rng rng_;
  double threshold_;
  std::uint32_t window_;
  std::deque<StepCost> recent_;
  std::uint64_t recent_blocks_ = 0;
  std::uint64_t recent_tasks_ = 0;
  bool armed_ = false;
  bool switched_ = false;
  std::uint64_t tasks_at_switch_ = 0;
};

}  // namespace hetsched
