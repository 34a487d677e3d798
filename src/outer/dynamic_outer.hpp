// DynamicOuter and DynamicOuter2Phases (Algorithms 1 and 2).
//
// Data-aware phase: when worker k requests work, the master picks a
// fresh row index i and column index j the worker does not know yet,
// ships a_i and b_j (2 blocks), and allocates every still-unprocessed
// task the enlarged knowledge {I+i} x {J+j} enables — the "L" of row i
// against J+j and column j against I.
//
// The enabled tasks are enumerated through a word-parallel frontier: the
// worker's known index sets are kept as n-bit masks, and the row i candidates
// come from one AND-NOT of the mask words against the pool's removed-set view
// (common/task_pool.hpp) instead of per-element pool probes. The stride-n
// column candidates scan a strategy-owned column-major mirror of the removed
// set (bit j*n + i) the same way, so they cost one AND-NOT per 64 candidates
// too. Each gathered window leaves the request as one run-encoded grant
// (TaskRun: occupancy word + stride, see sim/strategy.hpp). One kernel serves
// every request: it reads and writes the pool's removed-set and the mirror as
// raw words (TaskPool::raw_removed_words), retiring each window with one
// two-word OR on the scanned side and one bit write per hit on the other, and
// settles the pool's count once per request (TaskPool::commit_serial_removals).
// Both pool layouts expose those raw words, so the compact layout (>= 2^25
// tasks) takes the same path. The pool is built with a presence view: phase-1
// removals are bitset writes only, and the dense layout's swap-remove index is
// rebuilt once, at the phase-2 switch.
//
// Two-phase variant: once fewer than `phase2_tasks` tasks remain
// unallocated (strictly fewer — a request arriving with exactly
// `phase2_tasks` left is still served data-aware), fall back to
// RandomOuter-style service (a random unprocessed task plus its
// missing blocks). The paper switches when e^{-beta} * N^2 tasks
// remain, with beta chosen by the analysis
// (src/analysis/outer_analysis.hpp).
//
// A worker that exhausts its unknown index sets while tasks remain
// (only possible after a crash requeue) is served by the same random
// path, but that service is *phase-1 fallback*, not phase 2: it is
// counted in fallback_tasks_served() and announced once per rep via
// the on_fallback trace hook, never in phase2_tasks_served().
#pragma once

#include <cstdint>
#include <vector>

#include "common/dynamic_bitset.hpp"
#include "common/rng.hpp"
#include "common/task_pool.hpp"
#include "outer/outer_problem.hpp"
#include "sim/strategy.hpp"

namespace hetsched {

class DynamicOuterStrategy : public Strategy {
 public:
  /// phase2_tasks == 0 gives the pure DynamicOuter strategy.
  DynamicOuterStrategy(OuterConfig config, std::uint32_t workers,
                       std::uint64_t seed, std::uint64_t phase2_tasks = 0);

  std::string name() const override;
  std::uint64_t total_tasks() const override { return config_.total_tasks(); }
  std::uint64_t unassigned_tasks() const override { return pool_.size(); }
  std::uint32_t workers() const override { return n_workers_; }

  using Strategy::on_request;
  bool on_request(std::uint32_t worker, Assignment& out) override;

  bool requeue(const std::vector<TaskId>& tasks) override {
    bool all_inserted = true;
    for (const TaskId id : tasks) {
      if (!pool_.insert(id)) {
        all_inserted = false;
        continue;
      }
      const auto [i, j] = outer_task_coords(config_.n, id);
      removed_t_.reset(static_cast<std::uint64_t>(j) * mir_stride_ + i);
    }
    return all_inserted;
  }

  bool reset(std::uint64_t seed) override;

  /// Tasks served randomly after the two-phase switch. Zero for runs
  /// that never enter phase 2 (in particular the pure strategy).
  std::uint64_t phase2_tasks_served() const noexcept { return phase2_served_; }

  /// Tasks served randomly because a worker's unknown index sets ran
  /// dry during phase 1 (crash-requeued leftovers); counted separately
  /// from the phase-2 share.
  std::uint64_t fallback_tasks_served() const noexcept {
    return fallback_served_;
  }

  /// Number of (row, column) pairs worker k has learned in phase 1.
  std::uint32_t known_rows(std::uint32_t worker) const {
    return config_.n -
           static_cast<std::uint32_t>(state_[worker].unknown_i.size());
  }

  /// The analysis's x_k: |I| / N.
  double knowledge_fraction(std::uint32_t worker) const override {
    return static_cast<double>(known_rows(worker)) /
           static_cast<double>(config_.n);
  }

  int current_phase() const override {
    return phase2_tasks_ != 0 && in_phase2() ? 2 : 1;
  }

 private:
  struct WorkerState {
    std::vector<std::uint32_t> unknown_i;  // complement of I (swap-remove)
    std::vector<std::uint32_t> unknown_j;
    DynamicBitset mask_i;  // I as an n-bit mask (frontier scan order)
    DynamicBitset mask_j;  // J likewise
    OuterWorkerBlocks blocks;
  };

  /// "Once fewer than phase2_tasks tasks remain": strict comparison.
  bool in_phase2() const noexcept { return pool_.size() < phase2_tasks_; }

  bool dynamic_request(std::uint32_t worker, Assignment& out);
  bool random_request(std::uint32_t worker, Assignment& out);

  OuterConfig config_;
  std::uint32_t n_workers_;
  std::uint64_t phase2_tasks_;
  TaskPool pool_;
  /// Padded line stride of removed_t_: n rounded up to whole 64-bit
  /// words, so every column line starts word-aligned (aligned gathers,
  /// constant-mask stride-word scatters). Pad bits are never set and
  /// every mask is tail-clipped, so they can never produce a hit.
  std::uint64_t mir_stride_;
  /// Column-major mirror of the pool's removed set (bit
  /// j*mir_stride_ + i set <=> task (i, j) gone), kept exact across
  /// every take / pop / requeue / reset: it turns the stride-n
  /// column-j candidates into one contiguous word-parallel scan,
  /// symmetric to the row run.
  DynamicBitset removed_t_;
  /// Pre-sized emission buffer of the request kernel: windows write
  /// their run slot unconditionally and bump a cursor by
  /// (hits != 0), so zero-hit windows cost no mispredicting branch;
  /// the survivors are published with one bulk insert.
  std::vector<TaskRun> run_scratch_;
  std::vector<WorkerState> state_;
  Rng rng_;
  std::uint64_t phase2_served_ = 0;
  std::uint64_t fallback_served_ = 0;
  bool phase_switch_notified_ = false;
  bool fallback_notified_ = false;
};

/// Convenience alias constructor matching the paper's name: the switch
/// point is expressed as the fraction of tasks handled by phase 2
/// (e.g. exp(-beta)).
DynamicOuterStrategy make_dynamic_outer_2phases(OuterConfig config,
                                                std::uint32_t workers,
                                                std::uint64_t seed,
                                                double phase2_fraction);

}  // namespace hetsched
