// RandomMatrix and SortedMatrix (Section 4.1): the task-at-a-time
// matrix-multiply strategies. They serve a uniformly random (Random) or
// the lexicographically first (Sorted, (i, j, k) order) unprocessed
// task T_{i,j,k} and ship whichever of A_{i,k}, B_{k,j}, C_{i,j} the
// worker has not touched yet.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/fast_div.hpp"
#include "common/rng.hpp"
#include "common/task_pool.hpp"
#include "matmul/matmul_problem.hpp"
#include "sim/strategy.hpp"

namespace hetsched {

/// Hands out exactly one task per request with its missing blocks.
class PointwiseMatmulStrategy final : public Strategy {
 public:
  enum class Order { kRandom, kSorted };

  PointwiseMatmulStrategy(MatmulConfig config, std::uint32_t workers,
                          std::uint64_t seed, Order order);

  std::string name() const override {
    return order_ == Order::kRandom ? "RandomMatrix" : "SortedMatrix";
  }
  std::uint64_t total_tasks() const override { return config_.total_tasks(); }
  std::uint64_t unassigned_tasks() const override { return pool_.size(); }
  std::uint32_t workers() const override {
    return static_cast<std::uint32_t>(owned_.size());
  }

  using Strategy::on_request;
  bool on_request(std::uint32_t worker, Assignment& out) override;

  bool requeue(const std::vector<TaskId>& tasks) override {
    bool all_inserted = true;
    for (const TaskId id : tasks) all_inserted &= pool_.insert(id);
    return all_inserted;
  }

  bool reset(std::uint64_t seed) override {
    pool_.reset();
    for (auto& w : owned_) w.clear();
    rng_ = Rng(derive_stream(seed, "matmul.random"));
    return true;
  }

 private:
  MatmulConfig config_;
  FastDiv32 n_div_;  // id -> (i, j, k) without hardware divides
  Order order_;
  TaskPool pool_;
  std::vector<MatmulWorkerBlocks> owned_;
  Rng rng_;
};

}  // namespace hetsched
