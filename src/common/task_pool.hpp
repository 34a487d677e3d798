// Task pools for the master's unprocessed-task set, at two scales.
//
// SwapRemovePool (dense id->position index, ~16 bytes/task) is exact
// and fast but 10^9 tasks — matrix multiplication at N/l = 1000 — would
// need >10 GB. CompactTaskPool stores the same set in ~1.5 bits/task: a
// removed-bitset plus, once the pool has drained far enough that
// rejection sampling would start to spin, a one-time compaction of the
// survivors into a dense tail array. TaskPool is the facade strategies
// hold: it picks the representation from the capacity at construction,
// so small (paper-sized) instances keep the dense pool's exact RNG
// consumption — the bit-identity contract of the flat-engine goldens —
// while large instances silently switch to the compact layout.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/dynamic_bitset.hpp"
#include "common/rng.hpp"
#include "common/swap_remove_pool.hpp"

namespace hetsched {

/// Bitset-backed pool for huge id ranges: 1 bit/id for membership plus
/// 0.5 bit/id of generation stamps (inside DynamicBitset), plus a dense
/// tail of at most capacity/kCompactDivisor ids after compaction.
///
/// pop_random draws uniformly by rejection over [0, capacity) while the
/// pool is dense enough (expected < 2 draws above 50% occupancy), then
/// compacts the survivors into a dense tail once occupancy falls below
/// 1/kCompactDivisor and draws from the tail from there on. Tail
/// entries invalidated by remove()/pop_first() are pruned lazily.
class CompactTaskPool {
 public:
  /// Compact once fewer than capacity/kCompactDivisor ids remain; at
  /// that occupancy rejection sampling costs ~kCompactDivisor draws per
  /// pop while the tail costs capacity/kCompactDivisor words once.
  static constexpr std::uint64_t kCompactDivisor = 128;

  CompactTaskPool() = default;

  /// Fills the pool with ids 0..n-1.
  explicit CompactTaskPool(std::uint64_t n);

  std::uint64_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::uint64_t capacity_ids() const noexcept { return capacity_; }

  bool contains(std::uint64_t id) const noexcept {
    return id < capacity_ && !removed_.test(id);
  }

  /// Removes id if present; returns whether it was present.
  bool remove(std::uint64_t id) noexcept;

  /// Batch removal of up to 64 ids the caller has already verified
  /// present (bit b of `bits` removes id base + b): one OR into the
  /// removed-bitset instead of a test-and-set per id. Precondition:
  /// every set bit names a present id (violations corrupt size()).
  void remove_present_bits(std::uint64_t base, std::uint64_t bits) noexcept;

  /// Strided batch removal: bit b of `bits` removes id first + b * stride
  /// (same present-ids precondition as remove_present_bits). One size
  /// update for the whole run; stale tail entries are pruned lazily by
  /// pop_random, exactly as after remove().
  void remove_present_run(std::uint64_t first, std::uint64_t bits,
                          std::uint64_t stride) noexcept {
    if (bits == 0) return;
    if (stride == 1) {
      remove_present_bits(first, bits);
      return;
    }
    removed_.set_run(first, bits, stride);
    size_ -= static_cast<std::uint64_t>(std::popcount(bits));
  }

  /// Re-inserts a previously removed id (task requeue after a worker
  /// failure). Returns false if the id is already present.
  bool insert(std::uint64_t id);

  /// Removes and returns a uniformly random element. Throws
  /// std::logic_error if the pool is empty. (A requeued id that still
  /// has a stale pre-removal tail entry is drawn with double weight
  /// until one copy is popped — requeues are rare fault events, and the
  /// pool never yields an absent id.)
  std::uint64_t pop_random(Rng& rng);

  /// Removes and returns the smallest id still present. Amortized O(1)
  /// bitset scan behind a monotone cursor (insert rewinds it). Throws
  /// std::logic_error if the pool is empty.
  std::uint64_t pop_first();

  /// True once pop_random has switched from rejection sampling to the
  /// dense tail (exposed for tests).
  bool compacted() const noexcept { return compacted_; }

  /// Word-level membership view: bit set <=> id absent. Always exact in
  /// both sampling modes (the dense tail is pruned lazily, the bitset
  /// eagerly). Valid until the next non-const call.
  const DynamicBitset& removed_view() const noexcept { return removed_; }

  /// See TaskPool::materialize_presence.
  void materialize_presence() noexcept { removed_.materialize_all(); }

  /// Refills with ids 0..capacity-1 in O(1) (generation bump in the
  /// bitset; the tail keeps its heap block).
  void reset();

  /// Present ids in ascending order. O(capacity) scan — inspection and
  /// testing only.
  std::vector<std::uint64_t> ids() const;

 private:
  void compact();

  std::uint64_t capacity_ = 0;
  std::uint64_t size_ = 0;
  DynamicBitset removed_;              // bit set <=> id absent
  std::uint64_t first_cursor_ = 0;     // lower bound for pop_first scan
  std::vector<std::uint64_t> tail_;    // survivors, once compacted
  bool compacted_ = false;
};

/// The pool type strategies hold: dense SwapRemovePool below
/// kCompactThreshold ids (bit-identical to the pre-facade behavior,
/// including RNG consumption), CompactTaskPool at or above it.
class TaskPool {
 public:
  /// 2^25 ids: the dense pool costs ~512 MB just past the threshold
  /// and the compact pool ~6 MB; no paper-sized instance is near it.
  static constexpr std::uint64_t kCompactThreshold = 1ull << 25;

  TaskPool() = default;

  /// Fills the pool with ids 0..n-1. `presence_view` additionally
  /// maintains a word-level removed-bitset over the dense layout (the
  /// compact layout is that bitset, so the flag costs nothing there);
  /// the data-aware strategies scan it via removed_view(). Off by
  /// default: the pointwise strategies never scan and skip the extra
  /// bit write per mutation.
  ///
  /// `lazy_dense` (implies the presence view) defers the dense index:
  /// remove()/insert() touch only the removed-bitset and a live
  /// counter — one L1 bit write instead of 2-3 random index lines —
  /// and the swap-remove arrays are reconciled in one streaming
  /// O(capacity) pass at the next pop. Built for the data-aware
  /// strategies, whose steady state is long remove-only stretches
  /// (phase 1) followed by pop-only stretches (phase 2/fallback): each
  /// stretch pays at most one rebuild. RNG consumption is identical
  /// (1 draw per pop), but pops after a rebuild draw from an
  /// ascending-id layout rather than the swap-scrambled one, so the
  /// popped *values* differ from the eager mode's. No effect on the
  /// compact layout, which is already bitset-first.
  explicit TaskPool(std::uint64_t n, bool presence_view = false,
                    bool lazy_dense = false)
      : compact_(n >= kCompactThreshold),
        dense_view_((presence_view || lazy_dense) && !compact_),
        lazy_(lazy_dense && !compact_) {
    if (compact_) {
      large_ = CompactTaskPool(n);
    } else {
      dense_ = SwapRemovePool(n);
      if (dense_view_) dense_removed_ = DynamicBitset(n);
      lazy_live_ = n;
    }
  }

  std::uint64_t size() const noexcept {
    return compact_ ? large_.size() : (lazy_ ? lazy_live_ : dense_.size());
  }
  bool empty() const noexcept { return size() == 0; }
  std::uint64_t capacity_ids() const noexcept {
    return compact_ ? large_.capacity_ids() : dense_.capacity_ids();
  }
  bool contains(std::uint64_t id) const noexcept {
    if (compact_) return large_.contains(id);
    if (lazy_) return id < dense_removed_.size() && !dense_removed_.test(id);
    return dense_.contains(id);
  }
  bool remove(std::uint64_t id) noexcept {
    if (compact_) return large_.remove(id);
    if (lazy_) {
      if (id >= dense_removed_.size() || dense_removed_.test(id)) return false;
      dense_removed_.set(id);
      --lazy_live_;
      dense_stale_ = true;
      return true;
    }
    if (!dense_.remove(id)) return false;
    if (dense_view_) dense_removed_.set(id);
    return true;
  }
  /// Batch removal of up to 64 ids the caller has already verified
  /// present via removed_view() (bit b of `bits` removes id base + b).
  /// The frontier scans gather presence word-parallel, so this pairs
  /// one word-level write with each gathered window: lazy-dense and
  /// compact layouts pay a single OR plus a popcount; the eager dense
  /// index falls back to per-id removal to stay current. Precondition:
  /// every set bit names a present id (violations corrupt size()).
  void remove_present_bits(std::uint64_t base, std::uint64_t bits) noexcept {
    if (bits == 0) return;
    if (compact_) {
      large_.remove_present_bits(base, bits);
      return;
    }
    if (lazy_) {
      dense_removed_.or_shifted(base, bits);
      lazy_live_ -= static_cast<std::uint64_t>(std::popcount(bits));
      dense_stale_ = true;
      return;
    }
    while (bits != 0) {
      const std::uint64_t id =
          base + static_cast<std::uint64_t>(std::countr_zero(bits));
      dense_.remove(id);
      if (dense_view_) dense_removed_.set(id);
      bits &= bits - 1;
    }
  }
  /// Strided batch removal: bit b of `bits` removes id first + b * stride,
  /// all verified present by the caller's frontier gather. The run
  /// analogue of remove_present_bits: one call and one live-counter
  /// update retire a whole TaskRun. Stride 1 delegates to the word-OR
  /// path; larger strides pay one bit write per id (the scattered
  /// orientation of the dual-mirror structure) but no per-id counter or
  /// call overhead. Precondition: every set bit names a present id.
  void remove_present_run(std::uint64_t first, std::uint64_t bits,
                          std::uint64_t stride) noexcept {
    if (bits == 0) return;
    if (stride == 1) {
      remove_present_bits(first, bits);
      return;
    }
    if (compact_) {
      large_.remove_present_run(first, bits, stride);
      return;
    }
    if (lazy_) {
      dense_removed_.set_run(first, bits, stride);
      lazy_live_ -= static_cast<std::uint64_t>(std::popcount(bits));
      dense_stale_ = true;
      return;
    }
    std::uint64_t rest = bits;
    while (rest != 0) {
      const std::uint64_t id =
          first + static_cast<std::uint64_t>(std::countr_zero(rest)) * stride;
      dense_.remove(id);
      if (dense_view_) dense_removed_.set(id);
      rest &= rest - 1;
    }
  }
  /// Materialized-serial remove_present_bits: the bitset write skips
  /// generation resolution (see DynamicBitset::set_m and friends).
  /// Requires materialize_presence() since the last reset(); layouts
  /// without an unstamped path fall back to the stamped call, so the
  /// semantics never differ.
  void remove_present_bits_m(std::uint64_t base, std::uint64_t bits) noexcept {
    if (bits == 0) return;
    if (lazy_) {
      dense_removed_.or_shifted_m(base, bits);
      lazy_live_ -= static_cast<std::uint64_t>(std::popcount(bits));
      dense_stale_ = true;
      return;
    }
    remove_present_bits(base, bits);
  }
  /// Materialized-serial remove_present_run; same contract as
  /// remove_present_bits_m.
  void remove_present_run_m(std::uint64_t first, std::uint64_t bits,
                            std::uint64_t stride) noexcept {
    if (bits == 0) return;
    if (lazy_ && stride != 1) {
      dense_removed_.set_run_m(first, bits, stride);
      lazy_live_ -= static_cast<std::uint64_t>(std::popcount(bits));
      dense_stale_ = true;
      return;
    }
    if (lazy_) {
      remove_present_bits_m(first, bits);
      return;
    }
    remove_present_run(first, bits, stride);
  }
  /// Raw removed-mask words for the flattened serial fast path. Only
  /// the lazy-dense layout exposes one (nullptr otherwise — callers
  /// fall back to the stamped/_m calls). The caller scans and ORs
  /// removal bits directly against the same precondition as the _m
  /// family, then settles the bookkeeping in one step with
  /// commit_serial_removals(total bits set).
  std::uint64_t* raw_removed_words_m() noexcept {
    return lazy_ ? dense_removed_.raw_words_m() : nullptr;
  }
  void commit_serial_removals(std::uint64_t taken) noexcept {
    if (taken == 0) return;
    lazy_live_ -= taken;
    dense_stale_ = true;
  }
  bool insert(std::uint64_t id) {
    if (compact_) return large_.insert(id);
    if (lazy_) {
      if (id >= dense_removed_.size()) {
        throw std::out_of_range("TaskPool::insert: id beyond capacity");
      }
      if (!dense_removed_.test(id)) return false;
      dense_removed_.reset(id);
      ++lazy_live_;
      dense_stale_ = true;
      return true;
    }
    if (!dense_.insert(id)) return false;
    if (dense_view_) dense_removed_.reset(id);
    return true;
  }
  std::uint64_t pop_random(Rng& rng) {
    if (compact_) return large_.pop_random(rng);
    if (lazy_ && dense_stale_) rebuild_dense();
    const std::uint64_t id = dense_.pop_random(rng);
    if (dense_view_) dense_removed_.set(id);
    if (lazy_) --lazy_live_;
    return id;
  }
  /// Random pop for consumers that never mix in indexed operations on
  /// the steady path (see SwapRemovePool::pop_random_unindexed). Same
  /// RNG consumption and id sequence as pop_random in both layouts;
  /// the compact layout has no per-pop index to skip.
  std::uint64_t pop_random_unindexed(Rng& rng) {
    if (compact_) return large_.pop_random(rng);
    if (lazy_ && dense_stale_) rebuild_dense();
    const std::uint64_t id = dense_.pop_random_unindexed(rng);
    if (dense_view_) dense_removed_.set(id);
    if (lazy_) --lazy_live_;
    return id;
  }
  std::uint64_t pop_first() {
    if (compact_) return large_.pop_first();
    if (lazy_ && dense_stale_) rebuild_dense();
    const std::uint64_t id = dense_.pop_first();
    if (dense_view_) dense_removed_.set(id);
    if (lazy_) --lazy_live_;
    return id;
  }

  /// Refill with ids 0..capacity-1; all heap blocks retained. O(1) for
  /// the lazy-dense mode (generation bump + deferred rebuild),
  /// O(capacity) otherwise.
  void reset() {
    if (compact_) {
      large_.reset();
    } else if (lazy_) {
      dense_removed_.clear();  // O(1) generation bump
      lazy_live_ = dense_removed_.size();
      dense_stale_ = true;
    } else {
      dense_.reset();
      if (dense_view_) dense_removed_.clear();  // O(1) generation bump
    }
  }

  /// Makes every word of removed_view() generation-current, so the
  /// data-aware strategies' request loop can read and write it through
  /// the unstamped _m accessors (see DynamicBitset::materialize_all).
  /// Idempotent; must be re-run after reset().
  void materialize_presence() noexcept {
    if (compact_) {
      large_.materialize_presence();
    } else {
      dense_removed_.materialize_all();
    }
  }

  bool uses_compact_layout() const noexcept { return compact_; }

  /// True when removed_view() is available (compact layout, or a dense
  /// pool constructed with presence_view = true).
  bool has_presence_view() const noexcept { return compact_ || dense_view_; }

  /// Word-level membership view: bit set <=> id absent. Requires
  /// has_presence_view(). The reference stays valid (and exact) across
  /// mutations of the pool; reset() re-clears it in O(1).
  const DynamicBitset& removed_view() const {
    return compact_ ? large_.removed_view() : dense_removed_;
  }

  /// Present ids (dense: unspecified order; compact and stale lazy
  /// dense: ascending). May scan the whole bitset — inspection and
  /// testing only.
  std::vector<std::uint64_t> ids() const {
    if (compact_) return large_.ids();
    if (lazy_ && dense_stale_) {
      std::vector<std::uint64_t> out;
      out.reserve(lazy_live_);
      const std::size_t cap = dense_removed_.size();
      for (std::size_t id = dense_removed_.find_next_zero(0); id < cap;
           id = dense_removed_.find_next_zero(id + 1)) {
        out.push_back(id);
      }
      return out;
    }
    return dense_.ids();
  }

 private:
  /// Reconciles the swap-remove arrays with the removed-bitset after a
  /// lazy remove/insert/reset stretch (ascending rebuild, no
  /// allocation).
  void rebuild_dense() {
    dense_.refill_present(dense_removed_);
    dense_stale_ = false;
  }

  bool compact_ = false;
  bool dense_view_ = false;
  bool lazy_ = false;        // lazy-dense mode (see constructor)
  bool dense_stale_ = false; // lazy mode: dense_ lags dense_removed_
  SwapRemovePool dense_;
  CompactTaskPool large_;
  DynamicBitset dense_removed_;  // mirrors dense_ when dense_view_
  std::uint64_t lazy_live_ = 0;  // live count while dense_ is stale
};

}  // namespace hetsched
