#include "outer/dynamic_outer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace hetsched {

DynamicOuterStrategy::DynamicOuterStrategy(OuterConfig config,
                                           std::uint32_t workers,
                                           std::uint64_t seed,
                                           std::uint64_t phase2_tasks)
    : config_(config),
      n_workers_(workers),
      phase2_tasks_(phase2_tasks),
      pool_(config.total_tasks(), /*presence_view=*/true),
      mir_stride_(((config.n + 63) >> 6) << 6),
      removed_t_(static_cast<std::uint64_t>(config.n) * mir_stride_),
      rng_(derive_stream(seed, "outer.dynamic")) {
  validate(config_);
  if (workers == 0) {
    throw std::invalid_argument("DynamicOuterStrategy: need at least 1 worker");
  }
  state_.resize(workers);
  for (auto& w : state_) {
    w.mask_i = DynamicBitset(config_.n);
    w.mask_j = DynamicBitset(config_.n);
    w.blocks = OuterWorkerBlocks(config_.n);
    w.unknown_i.resize(config_.n);
    w.unknown_j.resize(config_.n);
    for (std::uint32_t v = 0; v < config_.n; ++v) {
      w.unknown_i[v] = v;
      w.unknown_j[v] = v;
    }
  }
  // Branchless emission bound of one request: the row scan and the
  // column scan each leave at most one run per mask word.
  run_scratch_.resize(2 * ((static_cast<std::size_t>(config_.n) + 63) >> 6));
}

std::string DynamicOuterStrategy::name() const {
  return phase2_tasks_ == 0 ? "DynamicOuter" : "DynamicOuter2Phases";
}

bool DynamicOuterStrategy::on_request(std::uint32_t worker, Assignment& out) {
  out.clear();
  if (pool_.empty()) return false;
  if (in_phase2()) {
    if (!phase_switch_notified_) {
      phase_switch_notified_ = true;
      notify_phase_switch(pool_.size());
    }
    if (!random_request(worker, out)) return false;
    ++phase2_served_;
    return true;
  }
  return dynamic_request(worker, out);
}

bool DynamicOuterStrategy::reset(std::uint64_t seed) {
  pool_.reset();
  removed_t_.clear();
  for (auto& w : state_) {
    w.unknown_i.resize(config_.n);
    w.unknown_j.resize(config_.n);
    for (std::uint32_t v = 0; v < config_.n; ++v) {
      w.unknown_i[v] = v;
      w.unknown_j[v] = v;
    }
    w.mask_i.clear();
    w.mask_j.clear();
    w.blocks.clear();
  }
  rng_ = Rng(derive_stream(seed, "outer.dynamic"));
  phase2_served_ = 0;
  fallback_served_ = 0;
  phase_switch_notified_ = false;
  fallback_notified_ = false;
  return true;
}

bool DynamicOuterStrategy::dynamic_request(std::uint32_t worker,
                                           Assignment& out) {
  WorkerState& w = state_[worker];
  if (w.unknown_i.empty() || w.unknown_j.empty()) {
    // The worker knows a whole dimension, so every task it could enable
    // is already marked; it can only help via the random fallback.
    // Phase 1 is over for this rep in all but name — announce the
    // regime change once, and account the serves as fallback work, not
    // phase-2 work (phase 2 may never arrive at all).
    if (!fallback_notified_) {
      fallback_notified_ = true;
      notify_fallback(pool_.size());
    }
    if (!random_request(worker, out)) return false;
    ++fallback_served_;
    return true;
  }

  // Draw a fresh (i, j) pair uniformly from the unknown index sets.
  const std::uint32_t i = rng_.take_uniform(w.unknown_i);
  const std::uint32_t j = rng_.take_uniform(w.unknown_j);

  out.blocks.push_back(BlockRef{Operand::kVecA, i, 0});
  out.blocks.push_back(BlockRef{Operand::kVecB, j, 0});
  w.blocks.owned_a.set(i);
  w.blocks.owned_b.set(j);

  // Allocate every unprocessed task the new data enables: row i against
  // J + j, and column j against I. Row i's task ids are the contiguous
  // run [i*n, i*n + n), so one word-parallel AND-NOT of the J + j mask
  // against the pool's removed-set yields all its survivors (ascending
  // j2); the stride-n column candidates are the contiguous run
  // [j*n, j*n + n) of the column-major mirror, scanned the same way
  // against the I mask. Enumeration order is (i, j2) ascending then
  // (i2, j) ascending — any candidate is taken iff still pooled, so the
  // assignment *set* matches the former per-element rescan exactly.
  const std::uint64_t row_base = outer_task_id(config_.n, i, 0);
  w.mask_j.set(j);
  // Raw word pointers hoisted out of the loops, one branchless two-word
  // gather and write-back per mask word, pool bookkeeping settled once
  // per request. The same kernel serves both pool layouts (dense with a
  // presence view, and compact): each exposes its removed-set as raw
  // words.
  std::uint64_t* const rem = pool_.raw_removed_words();
  std::uint64_t* const mir = removed_t_.raw_words();
  const std::size_t total_words = pool_.removed_view().word_count();
  const std::uint64_t n64 = config_.n;
  // Emission cursor into pre-sized scratch: the slot write is
  // unconditional and the cursor advances by (hits != 0), so a
  // zero-hit window costs no mispredicting branch.
  TaskRun* const rp = run_scratch_.data();
  std::size_t rn = 0;
  std::uint64_t taken = 0;
  const std::size_t nw = w.mask_j.word_count();
  // Padded mirror: line j2 starts at word j2 * nw, so the row-take
  // scatter or-stores a constant single-bit mask at stride-nw word
  // indexes and the column gather below is one aligned load per mask
  // word.
  std::uint64_t* const mcol = mir + (static_cast<std::size_t>(i) >> 6);
  const std::uint64_t ibit = 1ULL << (i & 63);
  for (std::size_t wd = 0; wd < nw; ++wd) {  // row i against J + j
    const std::uint64_t mask = w.mask_j.word(wd);
    if (mask == 0) continue;
    const std::uint64_t wbase = row_base + (wd << 6);
    const auto q = static_cast<std::size_t>(wbase >> 6);
    const auto sh = static_cast<unsigned>(wbase & 63);
    // Branchless two-word window: the double shift maps sh == 0 to a
    // zero contribution without a data-dependent branch (sh is an
    // arbitrary bit offset here, so a branch on it mispredicts).
    const std::uint64_t lo = rem[q];
    const bool two = q + 1 < total_words;
    const std::uint64_t hi = two ? rem[q + 1] : 0;
    const std::uint64_t gone = (lo >> sh) | ((hi << 1) << (63 - sh));
    const std::uint64_t hits = mask & ~gone;
    // hits == 0 makes every write below an identity; doing them
    // anyway beats a 50/50 data-dependent branch.
    rem[q] = lo | (hits << sh);
    if (two) rem[q + 1] = hi | ((hits >> 1) >> (63 - sh));
    const auto pc = static_cast<std::uint32_t>(std::popcount(hits));
    taken += pc;
    std::uint64_t* const mw = mcol + (wd << 6) * nw;
    std::uint64_t rest = hits;
    while (rest != 0) {
      mw[static_cast<std::size_t>(std::countr_zero(rest)) * nw] |= ibit;
      rest &= rest - 1;
    }
    rp[rn] = TaskRun{wbase, hits, 1, pc};
    rn += static_cast<std::size_t>(hits != 0);
  }
  std::uint64_t* const cline = mir + static_cast<std::size_t>(j) * nw;
  for (std::size_t wd = 0; wd < nw; ++wd) {  // column j against I
    const std::uint64_t mask = w.mask_i.word(wd);
    if (mask == 0) continue;
    // Padded mirror: column j's line starts word-aligned, so the
    // gather is one aligned load per mask word — no two-word split.
    const std::uint64_t gone = cline[wd];
    const std::uint64_t hits = mask & ~gone;
    cline[wd] = gone | hits;  // identity when hits == 0
    const auto pc = static_cast<std::uint32_t>(std::popcount(hits));
    taken += pc;
    const TaskId first = (static_cast<TaskId>(wd) << 6) * n64 + j;
    std::uint64_t rest = hits;
    while (rest != 0) {
      const std::uint64_t pos =
          first + static_cast<std::uint64_t>(std::countr_zero(rest)) * n64;
      rem[pos >> 6] |= 1ULL << (pos & 63);
      rest &= rest - 1;
    }
    rp[rn] = TaskRun{first, hits, n64, pc};
    rn += static_cast<std::size_t>(hits != 0);
  }
  out.task_runs.insert(out.task_runs.end(), rp, rp + rn);
  pool_.commit_serial_removals(taken);
  w.mask_i.set(i);
  return true;
}

bool DynamicOuterStrategy::random_request(std::uint32_t worker,
                                          Assignment& out) {
  if (pool_.empty()) return false;
  const TaskId id = pool_.pop_random(rng_);
  const auto [i, j] = outer_task_coords(config_.n, id);
  removed_t_.set(static_cast<std::uint64_t>(j) * mir_stride_ + i);
  charge_outer_task_blocks(i, j, state_[worker].blocks, out);
  out.tasks.push_back(id);
  return true;
}

DynamicOuterStrategy make_dynamic_outer_2phases(OuterConfig config,
                                                std::uint32_t workers,
                                                std::uint64_t seed,
                                                double phase2_fraction) {
  if (phase2_fraction < 0.0 || phase2_fraction > 1.0) {
    throw std::invalid_argument(
        "make_dynamic_outer_2phases: fraction must be in [0, 1]");
  }
  const double tasks = phase2_fraction * static_cast<double>(config.total_tasks());
  return DynamicOuterStrategy(config, workers, seed,
                              static_cast<std::uint64_t>(std::llround(tasks)));
}

}  // namespace hetsched
