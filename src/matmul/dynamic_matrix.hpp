// DynamicMatrix and DynamicMatrix2Phases (Algorithm 3 + Section 4.1).
//
// Data-aware phase: worker k maintains index sets I, J, K of equal size
// y such that it owns A_{i,k'}, B_{k',j}, C_{i,j} for all
// (i, j, k') in I x J x K. On request the master picks fresh indices
// (i, j, k), ships the 3*(2y+1) blocks that extend the cross products,
// and allocates every unprocessed task in (I+i) x (J+j) x (K+k) with at
// least one new coordinate.
//
// The enabled tasks of (I+i) x (J+j) x (K+k) are enumerated through a
// word-parallel frontier instead of per-element pool rescans: the
// known index sets are n-bit masks, each contiguous (·,·,k-run) of task
// ids is intersected with the K + k mask against the pool's
// removed-set view in one AND-NOT per 64 candidates, and the k-face
// candidates (I x J x {k}) scan a strategy-owned (i, k, j)-major mirror
// of the removed set — contiguous j-runs per (i2, k) — against the J
// mask the same way. Each gathered window leaves the request as one
// run-encoded grant (TaskRun: occupancy word + stride, see
// sim/strategy.hpp) and is *retired* word-level on both orientations
// through raw words (TaskPool::raw_removed_words): one two-word OR
// clears all its hits on the scanned side, and one bit write per hit
// scatters the mirror side — the minimum for a two-orientation
// presence structure — while the pool's count is settled once per
// request (TaskPool::commit_serial_removals). Both pool layouts expose
// those raw words, so one kernel serves every request, the compact
// layout (>= 2^25 tasks, e.g. N/l = 1000) included. Blocks ship one
// BlockRef each, only if the worker's owned-block set lacks them, each
// extension in ascending index order: a fixed-row group is tested and
// claimed one owned-set word at a time, a fixed-column group bit by
// bit (set_if_clear). The pool is built with a
// presence view (common/task_pool.hpp): phase-1 removals are bitset
// writes only, and the dense layout's swap-remove index is rebuilt
// once, at the phase-2 switch.
// Enumeration order: the corner run (i, j, ·), then the i-slab
// runs (i, j2, ·) for j2 in J ascending, then the j-slab runs
// (i2, j, ·) for i2 in I ascending, then the k-face probes (i2, j2, k)
// for i2 in I, j2 in J ascending; every candidate is taken iff still
// pooled, so the assignment *set* equals the former nested-loop scan
// (tests/integration/frontier_reference_test.cpp pins this, and pins
// the run expansion against the per-task order).
//
// Two-phase variant: once fewer than `phase2_tasks` tasks remain
// unallocated (strictly fewer — a request arriving with exactly
// `phase2_tasks` left is still served data-aware), serve random
// unprocessed tasks with their missing blocks (RandomMatrix fallback).
// The paper switches when e^{-beta} * N^3 tasks remain.
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
#include "matmul/matmul_problem.hpp"
#include "sim/strategy.hpp"

namespace hetsched {

class DynamicMatrixStrategy : public Strategy {
 public:
  /// phase2_tasks == 0 gives the pure DynamicMatrix strategy.
  DynamicMatrixStrategy(MatmulConfig config, std::uint32_t workers,
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
      const auto [i, j, k] = matmul_task_coords(config_.n, id);
      removed_t_.reset(
          (static_cast<std::uint64_t>(i) * config_.n + k) * mir_stride_ + j);
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

  /// Size y of worker k's structured index sets (|I| = |J| = |K|).
  std::uint32_t known_extent(std::uint32_t worker) const {
    return config_.n -
           static_cast<std::uint32_t>(state_[worker].unknown_i.size());
  }

  /// The analysis's x_k: y / N.
  double knowledge_fraction(std::uint32_t worker) const override {
    return static_cast<double>(known_extent(worker)) /
           static_cast<double>(config_.n);
  }

  int current_phase() const override {
    return phase2_tasks_ != 0 && in_phase2() ? 2 : 1;
  }

 private:
  struct WorkerState {
    std::vector<std::uint32_t> unknown_i;  // complement of I (swap-remove)
    std::vector<std::uint32_t> unknown_j;
    std::vector<std::uint32_t> unknown_k;
    DynamicBitset mask_i;  // I as an n-bit mask (frontier scan order)
    DynamicBitset mask_j;  // J likewise
    DynamicBitset mask_k;  // K likewise
    MatmulWorkerBlocks blocks;
  };

  /// "Once fewer than phase2_tasks tasks remain": strict comparison.
  bool in_phase2() const noexcept { return pool_.size() < phase2_tasks_; }

  bool dynamic_request(std::uint32_t worker, Assignment& out);
  /// Picks (i, j, k), ships the extension blocks and takes the enabled
  /// tasks. kMaskWords fixes the mask width in words at compile time;
  /// 0 reads it from the masks. Always inlined, so each compiled copy
  /// of dynamic_request (see dynamic_matrix.cpp) builds it for its own
  /// target.
  template <std::size_t kMaskWords>
  [[gnu::always_inline]] bool extend(WorkerState& w, Assignment& out);
  bool random_request(std::uint32_t worker, Assignment& out);

  MatmulConfig config_;
  std::uint32_t n_workers_;
  std::uint64_t phase2_tasks_;
  TaskPool pool_;
  /// Padded line stride of removed_t_: n rounded up to whole 64-bit
  /// words, so every (i, k) j-line starts word-aligned. Gathers become
  /// one aligned load per mask word and the k-run scatter or-stores a
  /// constant mask at adjacent word indices; the pad bits are never
  /// set and every mask is tail-clipped, so they can never produce a
  /// hit.
  std::uint64_t mir_stride_;
  /// (i, k, j)-major mirror of the pool's removed set (bit
  /// (i*n + k)*mir_stride_ + j set <=> task (i, j, k) gone), kept
  /// exact across every take / pop / requeue / reset: it lays the
  /// k-face candidates I x J x {k} out as contiguous j-runs, so they
  /// scan word-parallel like the (·,·,k)-runs instead of as stride-n
  /// bit probes.
  DynamicBitset removed_t_;
  std::vector<WorkerState> state_;
  Rng rng_;
  std::uint64_t phase2_served_ = 0;
  std::uint64_t fallback_served_ = 0;
  bool phase_switch_notified_ = false;
  bool fallback_notified_ = false;
  /// Pre-sized emission buffer of the request kernel: units write
  /// their run slot unconditionally and bump a cursor by (hits != 0),
  /// so zero-hit windows cost no branch; the survivors are published
  /// with one bulk insert. Sized in the constructor for the worst
  /// request, so the request loop never allocates through it.
  std::vector<TaskRun> run_scratch_;
};

/// Switch point expressed as the fraction of tasks handled by phase 2.
DynamicMatrixStrategy make_dynamic_matrix_2phases(MatmulConfig config,
                                                  std::uint32_t workers,
                                                  std::uint64_t seed,
                                                  double phase2_fraction);

}  // namespace hetsched
