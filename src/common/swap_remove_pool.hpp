// The master's pool of unprocessed task identifiers (dense variant).
//
// Dynamic strategies need three operations to stay cheap at the
// paper's scales (up to 10^6 tasks): O(1) membership test, O(1)
// removal of an arbitrary task (when a data-aware allocation marks a
// whole row/column), and O(1) uniform random extraction (the random
// phase). A dense id->position index over a swap-remove array gives
// all three. Ids enter once at construction and only ever leave, which
// also lets lexicographic extraction run behind a monotone cursor.
//
// The index is plain uint32 (4 B per side per id), ids and positions
// sharing one allocation (see allocate()). A generation-stamped layout
// was tried for O(1) reset() and rejected: doubling the entry to 8 B
// doubles the randomly-accessed footprint, costing ~25-40% per pop at
// 10^6 ids, while reset() is a streaming identity rewrite that
// vectorizes to ~1-2 ms at that size — and every replication drains
// the whole pool anyway, so there is no "mostly untouched" state for
// lazy stamps to exploit.
//
// Positions and ids are stored as uint32 with ~0u reserved as the
// absent marker, so capacities must stay below 2^32-1; the constructor
// and insert() enforce that (TaskPool/CompactTaskPool is the supported
// path past it — see common/task_pool.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/dynamic_bitset.hpp"
#include "common/rng.hpp"

namespace hetsched {

class SwapRemovePool {
 public:
  /// Largest representable capacity: ids/positions are uint32 and ~0u
  /// marks absence.
  static constexpr std::uint64_t kMaxCapacity = 0xFFFFFFFEull;

  SwapRemovePool() = default;

  /// Fills the pool with ids 0..n-1. Throws std::length_error for
  /// n > kMaxCapacity (the uint32 index would silently corrupt).
  explicit SwapRemovePool(std::uint64_t n);

  std::uint64_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::uint64_t capacity_ids() const noexcept { return capacity_; }

  bool contains(std::uint64_t id) const noexcept {
    if (index_dirty_) reindex();
    return id < capacity_ && pos_of(id) != kAbsent;
  }

  /// Removes id if present; returns whether it was present. Defined
  /// inline: this and pop_random are the per-task hot path of every
  /// dynamic strategy.
  bool remove(std::uint64_t id) noexcept {
    if (!contains(id)) return false;
    const std::uint32_t pos = pos_of(id);
    const std::uint32_t last = id_at(size_ - 1);
    id_at(pos) = last;
    pos_of(last) = pos;
    --size_;
    pos_of(id) = kAbsent;
    return true;
  }

  /// Re-inserts a previously removed id (task requeue after a worker
  /// failure). Returns false if the id is already present. The
  /// lexicographic cursor is rewound so pop_first stays correct.
  bool insert(std::uint64_t id);

  /// Removes and returns a uniformly random element. Throws
  /// std::logic_error if the pool is empty (a scheduling bug: callers
  /// must check empty() first).
  std::uint64_t pop_random(Rng& rng) {
    if (size_ == 0) throw_empty("SwapRemovePool::pop_random: pool is empty");
    if (index_dirty_) reindex();
    const auto pos = static_cast<std::uint32_t>(rng.next_below(size_));
    const std::uint32_t id = id_at(pos);
    const std::uint32_t last = id_at(size_ - 1);
    id_at(pos) = last;
    pos_of(last) = pos;
    --size_;
    pos_of(id) = kAbsent;
    return id;
  }

  /// pop_random for random-only consumers (RandomOuter/RandomMatrix):
  /// consumes the RNG identically and returns the identical id
  /// sequence, but skips the two random-line writes that keep the
  /// id->position index current. The first subsequent indexed
  /// operation (contains / remove / insert / pop_first / pop_random)
  /// rebuilds the index in one O(capacity) pass — in the simulations
  /// that only ever happens on a crash requeue.
  std::uint64_t pop_random_unindexed(Rng& rng) {
    if (size_ == 0) throw_empty("SwapRemovePool::pop_random: pool is empty");
    const auto pos = static_cast<std::uint32_t>(rng.next_below(size_));
    const std::uint32_t id = id_at(pos);
    id_at(pos) = id_at(size_ - 1);
    --size_;
    index_dirty_ = true;
    return id;
  }

  /// Removes and returns the smallest id still present (lexicographic
  /// service order). Amortized O(1) over the pool's lifetime because
  /// ids never re-enter. Throws std::logic_error if the pool is empty.
  std::uint64_t pop_first();

  /// Refills with ids 0..capacity-1 (streaming identity rewrite; heap
  /// blocks retained, so no allocation).
  void reset() noexcept;

  /// Rebuilds the pool over removed.size() ids to hold exactly the
  /// *clear* bits of `removed`, ascending, with a fresh index. One
  /// O(capacity) streaming pass; it allocates only when removed.size()
  /// differs from capacity_ids() (a default-constructed pool's first
  /// refill). Backs TaskPool's presence-view mode, where removals touch
  /// only the bitset and this reconciles before the next pop.
  void refill_present(const DynamicBitset& removed);

  /// Present ids in unspecified order (for inspection/testing).
  std::vector<std::uint64_t> ids() const;

 private:
  static constexpr std::uint32_t kAbsent = ~0u;

  [[noreturn]] static void throw_empty(const char* what);

  /// Sizes the storage for n ids; throws std::length_error past
  /// kMaxCapacity.
  void allocate(std::uint64_t n);

  void fill_identity() noexcept;

  /// The id at position p of the id array.
  std::uint32_t& id_at(std::uint64_t p) const noexcept { return slots_[p]; }
  /// Position of `id` in the id array, kAbsent if gone.
  std::uint32_t& pos_of(std::uint64_t id) const noexcept {
    return slots_[capacity_ + id];
  }

  /// Recomputes the positions from the (always current) id prefix after
  /// unindexed pops. Produces exactly the state an indexed pop
  /// sequence would have left. const (with mutable index state) so
  /// contains() can self-heal.
  void reindex() const noexcept;

  /// [0, capacity_): the dense array of present ids, live prefix
  /// [0, size_). [capacity_, 2 capacity_): id -> position, lazily
  /// rebuilt after pop_random_unindexed (mutable: contains() self-heals).
  /// Addressed by offset, not by pointers into the block, so copies and
  /// moves stay valid.
  mutable std::vector<std::uint32_t> slots_;
  std::uint64_t capacity_ = 0;
  std::uint64_t size_ = 0;          // live prefix of the id array
  std::uint64_t first_cursor_ = 0;  // lower bound for pop_first scan
  mutable bool index_dirty_ = false;
};

}  // namespace hetsched
