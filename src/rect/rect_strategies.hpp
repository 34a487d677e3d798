// Scheduling strategies for the rectangular outer product.
//
// RandomRect / SortedRect are the data-oblivious baselines.
// DynamicRect extends the paper's data-aware idea with *proportional
// acquisition*: instead of always taking one row and one column (which
// would skew coverage fractions when R != C), each step acquires the
// index whose dimension is relatively behind, keeping
// |I|/R ~ |J|/C — the coverage shape that matches the lower bound's
// geometrically similar rectangles. A phase-2 threshold turns it into
// the two-phase variant exactly as in the paper.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/swap_remove_pool.hpp"
#include "outer/outer_problem.hpp"
#include "rect/rect_problem.hpp"
#include "sim/strategy.hpp"

namespace hetsched {

class DynamicRectStrategy final : public Strategy {
 public:
  /// phase2_tasks = 0 gives the pure data-aware strategy.
  DynamicRectStrategy(RectConfig config, std::uint32_t workers,
                      std::uint64_t seed, std::uint64_t phase2_tasks = 0);

  std::string name() const override {
    return phase2_tasks_ == 0 ? "DynamicRect" : "DynamicRect2Phases";
  }
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

  /// Coverage fractions (|I|/R, |J|/C) of worker k — kept approximately
  /// equal by proportional acquisition.
  std::pair<double, double> coverage(std::uint32_t worker) const;

 private:
  struct WorkerState {
    std::vector<std::uint32_t> known_i;
    std::vector<std::uint32_t> known_j;
    std::vector<std::uint32_t> unknown_i;
    std::vector<std::uint32_t> unknown_j;
    OuterWorkerBlocks blocks;
  };

  bool in_phase2() const noexcept { return pool_.size() <= phase2_tasks_; }

  bool dynamic_request(std::uint32_t worker, Assignment& out);
  bool random_request(std::uint32_t worker, Assignment& out);

  RectConfig config_;
  std::uint64_t phase2_tasks_;
  SwapRemovePool pool_;
  std::vector<WorkerState> state_;
  Rng rng_;
};

/// Serves one uniformly random (Random) or lexicographic (Sorted)
/// unprocessed task per request with its missing blocks.
class PointwiseRectStrategy final : public Strategy {
 public:
  enum class Order { kRandom, kSorted };

  PointwiseRectStrategy(RectConfig config, std::uint32_t workers,
                        std::uint64_t seed, Order order);

  std::string name() const override {
    return order_ == Order::kRandom ? "RandomRect" : "SortedRect";
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

 private:
  RectConfig config_;
  Order order_;
  SwapRemovePool pool_;
  std::vector<OuterWorkerBlocks> owned_;
  Rng rng_;
};

/// Factory: "RandomRect", "SortedRect", "DynamicRect",
/// "DynamicRect2Phases" (phase2_fraction as in the square kernel).
std::unique_ptr<Strategy> make_rect_strategy(const std::string& name,
                                             RectConfig config,
                                             std::uint32_t workers,
                                             std::uint64_t seed,
                                             double phase2_fraction = 0.0);

}  // namespace hetsched
