// The reference data-aware step of Algorithm 1, written once for the
// outer-product ablations (PerWorkerSwitchOuter, AdaptiveOuter,
// BoundedLruOuter).
//
// While a worker extends its knowledge, each request draws a fresh
// (i, j) from the indices it does not know, ships a_i and b_j, and
// takes every still-pooled task of the "L": row i against the known J,
// column j against the known I, then the corner (i, j). Once the
// subclass's stop rule says no, the worker is served one uniformly
// random pooled task at a time, with whichever blocks it lacks. The
// subclasses differ only in that stop rule, in what they watch per
// step, and in how a block reaches the worker.
//
// This is the plain per-index loop, not DynamicOuter's word-parallel
// frontier; the ablation outputs in results/ are pinned to its RNG
// draws and task order.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/dynamic_bitset.hpp"
#include "common/rng.hpp"
#include "common/swap_remove_pool.hpp"
#include "outer/outer_problem.hpp"
#include "sim/strategy.hpp"

namespace hetsched {

class ReferenceOuterStrategy : public Strategy {
 public:
  std::uint64_t total_tasks() const final { return config_.total_tasks(); }
  std::uint64_t unassigned_tasks() const final { return pool_.size(); }
  std::uint32_t workers() const final {
    return static_cast<std::uint32_t>(state_.size());
  }

  using Strategy::on_request;
  bool on_request(std::uint32_t worker, Assignment& out) final;

  bool requeue(const std::vector<TaskId>& tasks) final;

 protected:
  /// `rng_tag` names the strategy's RNG stream (derive_stream(seed, tag)).
  ReferenceOuterStrategy(OuterConfig config, std::uint32_t workers,
                         std::uint64_t seed, std::string_view rng_tag);

  /// Whether `worker` takes another data-aware step; once false it is
  /// served randomly for good. Only asked while the worker still has
  /// unknown indices.
  virtual bool extends(std::uint32_t worker) const = 0;

  /// Called after each data-aware step with the number of tasks taken.
  virtual void on_step(std::size_t tasks) { (void)tasks; }

  /// Delivers block `index` of operand `op` to `worker`, appending a
  /// BlockRef to `out` when it must be transferred. Default: ship it on
  /// first receipt, then cache it forever.
  virtual void ship(std::uint32_t worker, Operand op, std::uint32_t index,
                    Assignment& out);

  const OuterConfig& config() const noexcept { return config_; }

  /// |I_k|: the row indices `worker` has acquired by data-aware steps.
  std::size_t known_rows(std::uint32_t worker) const {
    return state_[worker].known_i.size();
  }

 private:
  struct WorkerState {
    std::vector<std::uint32_t> known_i;
    std::vector<std::uint32_t> known_j;
    std::vector<std::uint32_t> unknown_i;
    std::vector<std::uint32_t> unknown_j;
    DynamicBitset owned_a;
    DynamicBitset owned_b;
  };

  OuterConfig config_;
  SwapRemovePool pool_;
  std::vector<WorkerState> state_;
  Rng rng_;
};

}  // namespace hetsched
