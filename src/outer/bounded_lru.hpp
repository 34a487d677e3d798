// Memory-bounded data-aware scheduling (systems extension).
//
// The paper's workers cache every block forever; real workers have
// finite memory. This variant gives each worker an LRU block cache of
// `capacity` blocks: the data-aware phase extends knowledge only while
// the cache has room, after which tasks are served one at a time with
// missing blocks fetched (and possibly *re*-fetched after eviction).
// bench/abl_memory_cap sweeps the capacity, locating how much cache the
// paper's numbers implicitly assume.
//
// Modeling note: phase-1 batches reference blocks fetched strictly
// earlier; since eviction only happens once the cache is already full —
// i.e. after phase 1 stopped extending — phase-1 blocks are resident
// when their tasks run. In the bounded phase each task's two blocks are
// made most-recently-used at service time, so they cannot be evicted
// before use (capacity >= 2).
#pragma once

#include <cstdint>
#include <vector>

#include "outer/reference_outer.hpp"

namespace hetsched {

class BoundedLruOuterStrategy final : public ReferenceOuterStrategy {
 public:
  /// capacity: per-worker cache size in blocks, >= 2.
  BoundedLruOuterStrategy(OuterConfig config, std::uint32_t workers,
                          std::uint64_t seed, std::uint32_t capacity);

  std::string name() const override { return "BoundedLruOuter"; }

  /// Fetches of blocks the worker had held before (eviction cost).
  std::uint64_t refetches() const noexcept { return refetches_; }

 private:
  /// LRU cache over 2n block slots: slot i = a_i, slot n+j = b_j.
  /// Intrusive doubly-linked list over slot ids for O(1) touch/evict.
  class LruCache {
   public:
    LruCache(std::uint32_t slots, std::uint32_t capacity);

    bool contains(std::uint32_t slot) const {
      return position_[slot] != kAbsent;
    }
    std::uint32_t size() const noexcept { return size_; }
    std::uint32_t capacity() const noexcept { return capacity_; }

    /// Marks the slot most-recently-used; must be present.
    void touch(std::uint32_t slot);

    /// Inserts a slot as MRU, evicting the LRU slot if full. Returns
    /// whether the slot had ever been present before (re-fetch).
    bool insert(std::uint32_t slot);

   private:
    static constexpr std::uint32_t kAbsent = ~0u;
    static constexpr std::uint32_t kNone = ~0u - 1;

    void unlink(std::uint32_t slot);
    void push_front(std::uint32_t slot);

    std::vector<std::uint32_t> prev_;
    std::vector<std::uint32_t> next_;
    std::vector<std::uint32_t> position_;  // kAbsent or a marker
    std::vector<bool> ever_held_;
    std::uint32_t head_ = kNone;  // MRU
    std::uint32_t tail_ = kNone;  // LRU
    std::uint32_t size_ = 0;
    std::uint32_t capacity_;
  };

  /// Extends while the next a_i and b_j fit without eviction.
  bool extends(std::uint32_t worker) const override {
    const LruCache& cache = caches_[worker];
    return cache.size() + 2 <= cache.capacity();
  }

  /// Fetches a slot into the worker's cache, charging the assignment.
  void ship(std::uint32_t worker, Operand op, std::uint32_t index,
            Assignment& out) override;

  std::vector<LruCache> caches_;
  std::uint64_t refetches_ = 0;
};

}  // namespace hetsched
