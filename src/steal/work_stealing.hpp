// Decentralized work stealing for the outer product and the matrix
// multiplication.
//
// The paper's related-work section anchors its methodology in
// Mitzenmacher's ODE analyses of work-stealing systems; this module
// provides the comparison point the paper alludes to: tasks are
// pre-partitioned into contiguous row bands (speed-agnostic, equal
// shares), each worker consumes its own band in lexicographic order,
// and an empty worker steals half the remaining tasks from the tail of
// a uniformly random non-empty victim's deque.
//
// Both strategies sit behind the same master-side Strategy interface
// as the paper's schedulers, so the same engines and benches apply:
// "the master" simply bookkeeps the deques that a real decentralized
// runtime would distribute.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "matmul/matmul_problem.hpp"
#include "outer/outer_problem.hpp"
#include "sim/strategy.hpp"
#include "steal/steal_core.hpp"

namespace hetsched {

class WorkStealingOuterStrategy final : public Strategy {
 public:
  WorkStealingOuterStrategy(OuterConfig config, std::uint32_t workers,
                            std::uint64_t seed);

  std::string name() const override { return "WorkStealingOuter"; }
  std::uint64_t total_tasks() const override { return config_.total_tasks(); }
  std::uint64_t unassigned_tasks() const override { return core_.remaining(); }
  std::uint32_t workers() const override { return core_.workers(); }

  using Strategy::on_request;
  bool on_request(std::uint32_t worker, Assignment& out) override;

  /// Number of successful steal operations so far.
  std::uint64_t steals() const noexcept { return core_.steals(); }

  /// Tasks currently queued in worker w's deque.
  std::size_t deque_size(std::uint32_t worker) const {
    return core_.deque_size(worker);
  }

 private:
  OuterConfig config_;
  StealDeques core_;
  std::vector<OuterWorkerBlocks> blocks_;
};

/// Work stealing over the n^3 matrix-multiply tasks, banded by the
/// output row index i (so a band shares A rows and C rows).
class WorkStealingMatmulStrategy final : public Strategy {
 public:
  WorkStealingMatmulStrategy(MatmulConfig config, std::uint32_t workers,
                             std::uint64_t seed);

  std::string name() const override { return "WorkStealingMatmul"; }
  std::uint64_t total_tasks() const override { return config_.total_tasks(); }
  std::uint64_t unassigned_tasks() const override { return core_.remaining(); }
  std::uint32_t workers() const override { return core_.workers(); }

  using Strategy::on_request;
  bool on_request(std::uint32_t worker, Assignment& out) override;

  std::uint64_t steals() const noexcept { return core_.steals(); }
  std::size_t deque_size(std::uint32_t worker) const {
    return core_.deque_size(worker);
  }

 private:
  MatmulConfig config_;
  StealDeques core_;
  std::vector<MatmulWorkerBlocks> blocks_;
};

}  // namespace hetsched
