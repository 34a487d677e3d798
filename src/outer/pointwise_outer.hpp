// RandomOuter and SortedOuter (Section 3.2): the task-at-a-time
// outer-product strategies. They differ only in which unprocessed task
// the master serves next: a uniformly random one (RandomOuter, the
// data-oblivious baseline whose replication cost the data-aware
// strategies are measured against) or the lexicographically first
// (SortedOuter, slightly better input reuse along a row).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/fast_div.hpp"
#include "common/rng.hpp"
#include "common/task_pool.hpp"
#include "outer/outer_problem.hpp"
#include "sim/strategy.hpp"

namespace hetsched {

/// Hands out exactly one task per request and ships whichever of a_i /
/// b_j the worker does not hold yet.
class PointwiseOuterStrategy final : public Strategy {
 public:
  enum class Order { kRandom, kSorted };

  PointwiseOuterStrategy(OuterConfig config, std::uint32_t workers,
                         std::uint64_t seed, Order order);

  std::string name() const override {
    return order_ == Order::kRandom ? "RandomOuter" : "SortedOuter";
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
    rng_ = Rng(derive_stream(seed, "outer.random"));
    return true;
  }

 private:
  OuterConfig config_;
  FastDiv32 n_div_;  // id -> (i, j) without a hardware divide
  Order order_;
  TaskPool pool_;
  std::vector<OuterWorkerBlocks> owned_;
  Rng rng_;
};

}  // namespace hetsched
