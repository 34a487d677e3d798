#include "outer/bounded_lru.hpp"

#include <cassert>
#include <stdexcept>

namespace hetsched {

BoundedLruOuterStrategy::LruCache::LruCache(std::uint32_t slots,
                                            std::uint32_t capacity)
    : prev_(slots, kNone),
      next_(slots, kNone),
      position_(slots, kAbsent),
      ever_held_(slots, false),
      capacity_(capacity) {}

void BoundedLruOuterStrategy::LruCache::unlink(std::uint32_t slot) {
  const std::uint32_t p = prev_[slot];
  const std::uint32_t n = next_[slot];
  if (p != kNone) next_[p] = n; else head_ = n;
  if (n != kNone) prev_[n] = p; else tail_ = p;
  prev_[slot] = kNone;
  next_[slot] = kNone;
}

void BoundedLruOuterStrategy::LruCache::push_front(std::uint32_t slot) {
  prev_[slot] = kNone;
  next_[slot] = head_;
  if (head_ != kNone) prev_[head_] = slot;
  head_ = slot;
  if (tail_ == kNone) tail_ = slot;
}

void BoundedLruOuterStrategy::LruCache::touch(std::uint32_t slot) {
  assert(contains(slot));
  if (head_ == slot) return;
  unlink(slot);
  push_front(slot);
}

bool BoundedLruOuterStrategy::LruCache::insert(std::uint32_t slot) {
  assert(!contains(slot));
  if (size_ == capacity_) {
    const std::uint32_t victim = tail_;
    assert(victim != kNone);
    unlink(victim);
    position_[victim] = kAbsent;
    --size_;
  }
  push_front(slot);
  position_[slot] = 0;  // any non-kAbsent marker
  ++size_;
  const bool refetch = ever_held_[slot];
  ever_held_[slot] = true;
  return refetch;
}

BoundedLruOuterStrategy::BoundedLruOuterStrategy(OuterConfig config,
                                                 std::uint32_t workers,
                                                 std::uint64_t seed,
                                                 std::uint32_t capacity)
    : ReferenceOuterStrategy(config, workers, seed, "outer.bounded") {
  if (capacity < 2) {
    throw std::invalid_argument(
        "BoundedLruOuterStrategy: capacity must be >= 2 blocks");
  }
  caches_.assign(workers, LruCache(2 * config.n, capacity));
}

void BoundedLruOuterStrategy::ship(std::uint32_t worker, Operand op,
                                   std::uint32_t index, Assignment& out) {
  const std::uint32_t slot =
      op == Operand::kVecA ? index : config().n + index;
  LruCache& cache = caches_[worker];
  if (cache.contains(slot)) {
    cache.touch(slot);
    return;
  }
  if (cache.insert(slot)) ++refetches_;
  out.blocks.push_back(BlockRef{op, index, 0});
}

}  // namespace hetsched
