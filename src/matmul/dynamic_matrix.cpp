#include "matmul/dynamic_matrix.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

// The request kernel is bit scans and variable shifts, which baseline
// x86-64 code spells as multi-uop sequences; with GCC on x86-64 Linux a
// second copy of it built for x86-64-v3 (BMI1/2) is picked at load time
// on CPUs that have it. The kernel is integer-only, so both copies
// compute the same answer.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__linux__)
#define HETSCHED_KERNEL_CLONES \
  __attribute__((target_clones("default", "arch=x86-64-v3")))
#else
#define HETSCHED_KERNEL_CLONES
#endif

namespace hetsched {

namespace {
/// Widest index mask (words) the request kernel copies to the stack.
constexpr std::size_t kMaxMaskWords = 16;
static_assert(kMaxMaskWords * 64 >= MatmulConfig::kMaxN,
              "the stack masks must cover every n validate() accepts");
}  // namespace

DynamicMatrixStrategy::DynamicMatrixStrategy(MatmulConfig config,
                                             std::uint32_t workers,
                                             std::uint64_t seed,
                                             std::uint64_t phase2_tasks)
    : config_(config),
      n_workers_(workers),
      phase2_tasks_(phase2_tasks),
      pool_(config.total_tasks(), /*presence_view=*/true),
      mir_stride_(((config.n + 63) >> 6) << 6),
      removed_t_(static_cast<std::uint64_t>(config.n) * config.n * mir_stride_),
      rng_(derive_stream(seed, "matmul.dynamic")) {
  validate(config_);
  if (workers == 0) {
    throw std::invalid_argument("DynamicMatrixStrategy: need at least 1 worker");
  }
  state_.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    WorkerState s;
    s.blocks = MatmulWorkerBlocks(config_.n);
    s.mask_i = DynamicBitset(config_.n);
    s.mask_j = DynamicBitset(config_.n);
    s.mask_k = DynamicBitset(config_.n);
    s.unknown_i.resize(config_.n);
    s.unknown_j.resize(config_.n);
    s.unknown_k.resize(config_.n);
    for (std::uint32_t v = 0; v < config_.n; ++v) {
      s.unknown_i[v] = v;
      s.unknown_j[v] = v;
      s.unknown_k[v] = v;
    }
    state_.push_back(std::move(s));
  }
  // Branchless emission bound of one request: every scan unit (corner
  // + i-slab + j-slab + faces <= 3n + 1 of them) may leave one run per
  // mask word.
  run_scratch_.resize((static_cast<std::size_t>(3) * config_.n + 1) *
                      ((config_.n + 63) >> 6));
}

std::string DynamicMatrixStrategy::name() const {
  return phase2_tasks_ == 0 ? "DynamicMatrix" : "DynamicMatrix2Phases";
}

bool DynamicMatrixStrategy::on_request(std::uint32_t worker, Assignment& out) {
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

bool DynamicMatrixStrategy::reset(std::uint64_t seed) {
  pool_.reset();
  removed_t_.clear();
  for (auto& w : state_) {
    w.unknown_i.resize(config_.n);
    w.unknown_j.resize(config_.n);
    w.unknown_k.resize(config_.n);
    for (std::uint32_t v = 0; v < config_.n; ++v) {
      w.unknown_i[v] = v;
      w.unknown_j[v] = v;
      w.unknown_k[v] = v;
    }
    w.mask_i.clear();
    w.mask_j.clear();
    w.mask_k.clear();
    w.blocks.clear();
  }
  rng_ = Rng(derive_stream(seed, "matmul.dynamic"));
  phase2_served_ = 0;
  fallback_served_ = 0;
  phase_switch_notified_ = false;
  fallback_notified_ = false;
  return true;
}

HETSCHED_KERNEL_CLONES
bool DynamicMatrixStrategy::dynamic_request(std::uint32_t worker,
                                            Assignment& out) {
  WorkerState& w = state_[worker];
  if (w.unknown_i.empty() || w.unknown_j.empty() || w.unknown_k.empty()) {
    // Knowledge covers a full dimension: the structured extension is
    // exhausted, so serve the remaining pool randomly. Phase 1 is over
    // for this rep in all but name — announce the regime change once,
    // and account the serves as fallback work, not phase-2 work
    // (phase 2 may never arrive at all).
    if (!fallback_notified_) {
      fallback_notified_ = true;
      notify_fallback(pool_.size());
    }
    if (!random_request(worker, out)) return false;
    ++fallback_served_;
    return true;
  }
  // Masks of one word (n <= 64, e.g. the N/l = 40 figures) get a kernel
  // whose mask loops the compiler can unroll away.
  return config_.n <= 64 ? extend<1>(w, out) : extend<0>(w, out);
}

template <std::size_t kMaskWords>
inline bool DynamicMatrixStrategy::extend(WorkerState& w, Assignment& out) {
  const std::uint32_t i = rng_.take_uniform(w.unknown_i);
  const std::uint32_t j = rng_.take_uniform(w.unknown_j);
  const std::uint32_t k = rng_.take_uniform(w.unknown_k);
  const std::uint32_t n = config_.n;

  // The knowledge masks are re-read once per scanned unit otherwise;
  // one copy to the stack up front keeps the loops below on plain
  // registers and local words. mk is K + k from the task scan on.
  const std::uint64_t n64 = n;
  const std::size_t nmw = kMaskWords != 0 ? kMaskWords : w.mask_k.word_count();
  std::uint64_t mk[kMaxMaskWords], mi_w[kMaxMaskWords], mj_w[kMaxMaskWords];
  for (std::size_t wd = 0; wd < nmw; ++wd) {
    mk[wd] = w.mask_k.word(wd);
    mi_w[wd] = w.mask_i.word(wd);
    mj_w[wd] = w.mask_j.word(wd);
  }

  // Ship the blocks extending I x K, K x J and I x J with the new
  // indices, operand by operand: the new row over its mask plus the new
  // column, then the new column over the old row mask, each ascending.
  // Only blocks the worker lacks are sent — all 3*(2y+1) of them unless
  // a random serve (phase 2, then a requeue lifting the pool back over
  // the threshold) already delivered some.
  // A fixed-row group's blocks (r, v) are the owned bits
  // [r*n, r*n + n): one two-word window per mask word tests and claims
  // up to 64 of them at once, a word-wide set_if_clear (the same
  // branchless window as the task scan below).
  const auto ship_row = [&](Operand op, DynamicBitset& owned, std::uint32_t r,
                            const std::uint64_t* mask, std::uint32_t extra) {
    std::uint64_t* const ow = owned.raw_words();
    const std::size_t ow_words = owned.word_count();
    for (std::size_t wd = 0; wd < nmw; ++wd) {
      std::uint64_t bits = mask[wd];
      if ((extra >> 6) == wd) bits |= 1ULL << (extra & 63);
      if (bits == 0) continue;
      const std::uint64_t pos = block_index(n, r, 0) + (wd << 6);
      const auto q = static_cast<std::size_t>(pos >> 6);
      const auto sh = static_cast<unsigned>(pos & 63);
      const std::uint64_t lo = ow[q];
      const bool two = q + 1 < ow_words;
      const std::uint64_t hi = two ? ow[q + 1] : 0;
      const std::uint64_t have = (lo >> sh) | ((hi << 1) << (63 - sh));
      std::uint64_t fresh = bits & ~have;
      ow[q] = lo | (fresh << sh);
      if (two) ow[q + 1] = hi | ((fresh >> 1) >> (63 - sh));
      const auto vbase = static_cast<std::uint32_t>(wd << 6);
      while (fresh != 0) {
        out.blocks.push_back(BlockRef{
            op, r, vbase + static_cast<std::uint32_t>(std::countr_zero(fresh))});
        fresh &= fresh - 1;
      }
    }
  };
  // A fixed-column group's blocks (v, c) are n bits apart: one bit test
  // each.
  const auto ship_col = [&](Operand op, DynamicBitset& owned, std::uint32_t c,
                            const std::uint64_t* mask) {
    for (std::size_t wd = 0; wd < nmw; ++wd) {
      std::uint64_t bits = mask[wd];
      const auto vbase = static_cast<std::uint32_t>(wd << 6);
      while (bits != 0) {
        const std::uint32_t v =
            vbase + static_cast<std::uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
        if (owned.set_if_clear(block_index(n, v, c))) {
          out.blocks.push_back(BlockRef{op, v, c});
        }
      }
    }
  };
  ship_row(Operand::kMatA, w.blocks.owned_a, i, mk, k);
  ship_col(Operand::kMatA, w.blocks.owned_a, k, mi_w);
  ship_row(Operand::kMatB, w.blocks.owned_b, k, mj_w, j);
  ship_col(Operand::kMatB, w.blocks.owned_b, j, mk);
  ship_row(Operand::kMatC, w.blocks.owned_c, i, mj_w, j);
  ship_col(Operand::kMatC, w.blocks.owned_c, j, mi_w);

  // Allocate all unprocessed tasks of (I+i) x (J+j) x (K+k) that touch
  // a new index — (y+1)^2 + y(y+1) + y^2 = 3y^2 + 3y + 1 candidates,
  // disjoint by construction. Every (ti, tj, ·) group is the contiguous
  // id run [(ti*n + tj)*n, +n), so the i-slab and j-slab candidates
  // fall out of one word-parallel AND-NOT of the K + k mask against
  // the pool's removed-set per run; the k-face I x J x {k} groups are
  // contiguous j-runs of the (i, k, j)-major mirror, one AND-NOT of
  // the J mask per (i2, k). A candidate is taken iff still pooled, so
  // the assignment set matches the former nested-loop rescan; the
  // enumeration order documented in the header is what the goldens
  // pin.
  w.mask_k.set(k);  // runs scan K + k
  mk[k >> 6] |= 1ULL << (k & 63);
  // Raw word pointers hoisted out of the loops, one branchless two-word
  // gather and write-back per (unit, mask word), and the pool
  // bookkeeping settled once per request instead of once per window.
  // The same kernel serves both pool layouts (dense with a presence
  // view, and compact): each exposes its removed-set as raw words.
  std::uint64_t* const rem = pool_.raw_removed_words();
  std::uint64_t* const mir = removed_t_.raw_words();
  const std::size_t total_words = pool_.removed_view().word_count();
  // Emission goes through a cursor into pre-sized scratch: the slot
  // write is unconditional and the cursor advances by (hits != 0),
  // so the ~50% zero-hit units cost no mispredicting branch. One
  // bulk insert publishes the surviving runs at the end.
  TaskRun* const rp = run_scratch_.data();
  std::size_t rn = 0;
  std::uint64_t taken = 0;
  const auto take_runs = [&](std::uint64_t ti, std::uint64_t tj) {
    const std::uint64_t base = matmul_task_id(n, static_cast<std::uint32_t>(ti),
                                              static_cast<std::uint32_t>(tj), 0);
    // Padded-mirror row of (ti, k0): line stride nmw words, so the
    // scatter below or-stores a constant single-bit mask at adjacent
    // word indices — no per-bit position split.
    std::uint64_t* const mrow = mir + (ti * n64) * nmw + (tj >> 6);
    const std::uint64_t jbit = 1ULL << (tj & 63);
    for (std::size_t wd = 0; wd < nmw; ++wd) {
      const std::uint64_t mask = mk[wd];
      if (mask == 0) continue;
      const std::uint64_t wbase = base + (wd << 6);
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
      // The scatter visits every hit anyway, so it counts them too:
      // std::popcount is a library call on baseline x86-64.
      std::uint32_t pc = 0;
      std::uint64_t* const mw = mrow + (wd << 6) * nmw;
      std::uint64_t rest = hits;
      while (rest != 0) {
        mw[static_cast<std::size_t>(std::countr_zero(rest)) * nmw] |= jbit;
        rest &= rest - 1;
        ++pc;
      }
      taken += pc;
      rp[rn] = TaskRun{wbase, hits, 1, pc};
      rn += static_cast<std::size_t>(hits != 0);
    }
  };
  take_runs(i, j);  // corner run (i, j, ·)
  for (std::size_t wd = 0; wd < nmw; ++wd) {  // i-slab
    std::uint64_t bits = mj_w[wd];
    while (bits != 0) {
      take_runs(i,
                (wd << 6) + static_cast<std::uint64_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
  for (std::size_t wd = 0; wd < nmw; ++wd) {  // j-slab
    std::uint64_t bits = mi_w[wd];
    while (bits != 0) {
      take_runs((wd << 6) + static_cast<std::uint64_t>(std::countr_zero(bits)),
                j);
      bits &= bits - 1;
    }
  }
  for (std::size_t wdi = 0; wdi < nmw; ++wdi) {  // k-face
    std::uint64_t ibits = mi_w[wdi];
    while (ibits != 0) {
      const std::uint64_t i2 =
          (wdi << 6) + static_cast<std::uint64_t>(std::countr_zero(ibits));
      ibits &= ibits - 1;
      // Padded mirror: the (i2, k) j-line starts word-aligned, so the
      // gather is one aligned load per mask word — no two-word split.
      std::uint64_t* const fline = mir + (i2 * n64 + k) * nmw;
      const std::uint64_t id_base = i2 * n64 * n64 + k;
      for (std::size_t wd = 0; wd < nmw; ++wd) {
        const std::uint64_t mask = mj_w[wd];
        if (mask == 0) continue;
        const std::uint64_t gone = fline[wd];
        const std::uint64_t hits = mask & ~gone;
        fline[wd] = gone | hits;  // identity when hits == 0
        const TaskId first = id_base + (static_cast<TaskId>(wd) << 6) * n64;
        std::uint32_t pc = 0;
        std::uint64_t rest = hits;
        while (rest != 0) {
          const std::uint64_t pos =
              first + static_cast<std::uint64_t>(std::countr_zero(rest)) * n64;
          rem[pos >> 6] |= 1ULL << (pos & 63);
          rest &= rest - 1;
          ++pc;
        }
        taken += pc;
        rp[rn] = TaskRun{first, hits, n64, pc};
        rn += static_cast<std::size_t>(hits != 0);
      }
    }
  }
  out.task_runs.insert(out.task_runs.end(), rp, rp + rn);
  pool_.commit_serial_removals(taken);
  w.mask_i.set(i);
  w.mask_j.set(j);
  return true;
}

bool DynamicMatrixStrategy::random_request(std::uint32_t worker,
                                           Assignment& out) {
  if (pool_.empty()) return false;
  WorkerState& w = state_[worker];
  const TaskId id = pool_.pop_random(rng_);
  const auto [i, j, k] = matmul_task_coords(config_.n, id);
  removed_t_.set(
      (static_cast<std::uint64_t>(i) * config_.n + k) * mir_stride_ + j);

  charge_matmul_task_blocks(config_.n, i, j, k, w.blocks, out);
  out.tasks.push_back(id);
  return true;
}

DynamicMatrixStrategy make_dynamic_matrix_2phases(MatmulConfig config,
                                                  std::uint32_t workers,
                                                  std::uint64_t seed,
                                                  double phase2_fraction) {
  if (phase2_fraction < 0.0 || phase2_fraction > 1.0) {
    throw std::invalid_argument(
        "make_dynamic_matrix_2phases: fraction must be in [0, 1]");
  }
  const double tasks =
      phase2_fraction * static_cast<double>(config.total_tasks());
  return DynamicMatrixStrategy(config, workers, seed,
                               static_cast<std::uint64_t>(std::llround(tasks)));
}

}  // namespace hetsched
