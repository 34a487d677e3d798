// Task pools for the master's unprocessed-task set, at two scales.
//
// SwapRemovePool (dense id->position index, 8 bytes/task) is exact
// and fast but 10^9 tasks — matrix multiplication at N/l = 1000 — would
// need 8 GB. CompactTaskPool stores the same set in ~1 bit/task: a
// removed-bitset plus, once the pool has drained far enough that
// rejection sampling would start to spin, a one-time compaction of the
// survivors into a dense tail array. TaskPool is the facade strategies
// hold: it picks the representation from the capacity at construction,
// so small (paper-sized) instances keep the dense pool's exact RNG
// consumption — the bit-identity contract of the flat-engine goldens —
// while large instances silently switch to the compact layout.
#pragma once

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/dynamic_bitset.hpp"
#include "common/rng.hpp"
#include "common/swap_remove_pool.hpp"

namespace hetsched {

/// Bitset-backed pool for huge id ranges: 1 bit/id for membership, plus
/// a dense tail of at most capacity/kCompactDivisor ids after
/// compaction.
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

  /// Raw removed-set words and their bulk commit, for the frontier
  /// kernels; see TaskPool::raw_removed_words. Stale tail entries
  /// of ids removed this way are pruned lazily by pop_random, exactly
  /// as after remove().
  std::uint64_t* raw_removed_words() noexcept { return removed_.raw_words(); }
  void commit_removals(std::uint64_t taken) noexcept { size_ -= taken; }

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

  /// Refills with ids 0..capacity-1: one fill of the bitset's words;
  /// the tail keeps its heap block.
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

  /// Fills the pool with ids 0..n-1. `presence_view` keeps a word-level
  /// removed-bitset over the dense layout (the compact layout is that
  /// bitset, so the flag costs nothing there), which the data-aware
  /// strategies scan via removed_view() / raw_removed_words(). Off
  /// by default: the pointwise strategies never scan and keep the
  /// eager swap-remove index.
  ///
  /// With the view on, the dense index is deferred: remove()/insert()
  /// touch only the removed-bitset and a live counter — one L1 bit
  /// write instead of 2-3 random index lines — and the swap-remove
  /// arrays are reconciled in one streaming O(capacity) pass at the
  /// next pop. The index is first built (and allocated) at the first
  /// pop, not here. The data-aware strategies' steady state is long
  /// remove-only stretches (phase 1) followed by pop-only stretches
  /// (phase 2/fallback), so each stretch pays at most one rebuild. RNG
  /// consumption is that of the plain pool (1 draw per pop), but pops
  /// after a rebuild draw from an ascending-id layout rather than the
  /// swap-scrambled one, so the popped *values* differ from it.
  explicit TaskPool(std::uint64_t n, bool presence_view = false)
      : compact_(n >= kCompactThreshold),
        lazy_(presence_view && !compact_),
        dense_stale_(lazy_) {
    if (compact_) {
      large_ = CompactTaskPool(n);
    } else if (lazy_) {
      dense_removed_ = DynamicBitset(n);
      lazy_live_ = n;
    } else {
      dense_ = SwapRemovePool(n);
    }
  }

  std::uint64_t size() const noexcept {
    return compact_ ? large_.size() : (lazy_ ? lazy_live_ : dense_.size());
  }
  bool empty() const noexcept { return size() == 0; }
  std::uint64_t capacity_ids() const noexcept {
    if (compact_) return large_.capacity_ids();
    return lazy_ ? dense_removed_.size() : dense_.capacity_ids();
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
    return dense_.remove(id);
  }
  /// Raw removed-set words (bit set <=> id absent) for the data-aware
  /// strategies' frontier kernels, in both layouts. Requires
  /// has_presence_view(). The caller scans and ORs removal bits
  /// directly — every bit it sets must name a present id — then settles
  /// the bookkeeping in one step with commit_serial_removals(total bits
  /// set).
  std::uint64_t* raw_removed_words() noexcept {
    assert(has_presence_view() && "raw_removed_words needs a presence view");
    return compact_ ? large_.raw_removed_words() : dense_removed_.raw_words();
  }
  void commit_serial_removals(std::uint64_t taken) noexcept {
    if (taken == 0) return;
    if (compact_) {
      large_.commit_removals(taken);
      return;
    }
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
    return dense_.insert(id);
  }
  std::uint64_t pop_random(Rng& rng) {
    if (compact_) return large_.pop_random(rng);
    if (lazy_ && dense_stale_) rebuild_dense();
    return note_pop(dense_.pop_random(rng));
  }
  /// Random pop for consumers that never mix in indexed operations on
  /// the steady path (see SwapRemovePool::pop_random_unindexed). Same
  /// RNG consumption and id sequence as pop_random in both layouts;
  /// the compact layout has no per-pop index to skip.
  std::uint64_t pop_random_unindexed(Rng& rng) {
    if (compact_) return large_.pop_random(rng);
    if (lazy_ && dense_stale_) rebuild_dense();
    return note_pop(dense_.pop_random_unindexed(rng));
  }
  std::uint64_t pop_first() {
    if (compact_) return large_.pop_first();
    if (lazy_ && dense_stale_) rebuild_dense();
    return note_pop(dense_.pop_first());
  }

  /// Refill with ids 0..capacity-1; all heap blocks retained. With a
  /// presence view this fills the bitset (capacity/64 words) and
  /// defers the index rebuild to the next pop; otherwise it rewrites
  /// the identity index.
  void reset() {
    if (compact_) {
      large_.reset();
    } else if (lazy_) {
      dense_removed_.clear();
      lazy_live_ = dense_removed_.size();
      dense_stale_ = true;
    } else {
      dense_.reset();
    }
  }

  bool uses_compact_layout() const noexcept { return compact_; }

  /// True when removed_view() is available (compact layout, or a dense
  /// pool constructed with presence_view = true).
  bool has_presence_view() const noexcept { return compact_ || lazy_; }

  /// Word-level membership view: bit set <=> id absent. Requires
  /// has_presence_view(). The reference stays valid (and exact) across
  /// mutations of the pool; reset() re-clears it.
  const DynamicBitset& removed_view() const {
    return compact_ ? large_.removed_view() : dense_removed_;
  }

  /// Present ids (dense: unspecified order; compact and stale
  /// presence-view dense: ascending). May scan the whole bitset —
  /// inspection and testing only.
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
  /// lazy remove/insert/reset stretch (ascending rebuild; allocates
  /// only on the first call, which builds the index).
  void rebuild_dense() {
    dense_.refill_present(dense_removed_);
    dense_stale_ = false;
  }

  /// Mirrors a dense-index pop into the presence view.
  std::uint64_t note_pop(std::uint64_t id) noexcept {
    if (lazy_) {
      dense_removed_.set(id);
      --lazy_live_;
    }
    return id;
  }

  bool compact_ = false;
  bool lazy_ = false;        // dense layout with a presence view (see ctor)
  bool dense_stale_ = false; // lazy mode: dense_ lags dense_removed_
  SwapRemovePool dense_;     // lazy mode: empty until the first pop
  CompactTaskPool large_;
  DynamicBitset dense_removed_;  // the removed set, when lazy_
  std::uint64_t lazy_live_ = 0;  // live count while dense_ is stale
};

}  // namespace hetsched
