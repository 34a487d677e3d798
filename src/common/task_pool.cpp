#include "common/task_pool.hpp"

#include <stdexcept>

namespace hetsched {

CompactTaskPool::CompactTaskPool(std::uint64_t n)
    : capacity_(n), size_(n), removed_(n) {}

bool CompactTaskPool::remove(std::uint64_t id) noexcept {
  if (id >= capacity_ || !removed_.set_if_clear(id)) return false;
  --size_;
  return true;
}

bool CompactTaskPool::insert(std::uint64_t id) {
  if (id >= capacity_) {
    throw std::out_of_range("CompactTaskPool::insert: id beyond capacity");
  }
  if (!removed_.test(id)) return false;
  removed_.reset(id);
  ++size_;
  if (compacted_) tail_.push_back(id);
  if (id < first_cursor_) first_cursor_ = id;
  return true;
}

std::uint64_t CompactTaskPool::pop_random(Rng& rng) {
  if (size_ == 0) {
    throw std::logic_error("CompactTaskPool::pop_random: pool is empty");
  }
  if (!compacted_ && size_ * kCompactDivisor <= capacity_) compact();
  if (!compacted_) {
    // Rejection sampling over the full id range: occupancy is above
    // 1/kCompactDivisor, so this terminates in O(kCompactDivisor)
    // expected draws (O(1) for the dense early phase).
    for (;;) {
      const std::uint64_t id = rng.next_below(capacity_);
      if (removed_.set_if_clear(id)) {
        --size_;
        return id;
      }
    }
  }
  // Dense tail; entries whose bit got set by remove()/pop_first() are
  // stale and pruned as they are drawn.
  for (;;) {
    const std::uint64_t j = rng.next_below(tail_.size());
    const std::uint64_t id = tail_[j];
    tail_[j] = tail_.back();
    tail_.pop_back();
    if (removed_.set_if_clear(id)) {
      --size_;
      return id;
    }
  }
}

std::uint64_t CompactTaskPool::pop_first() {
  if (size_ == 0) {
    throw std::logic_error("CompactTaskPool::pop_first: pool is empty");
  }
  // Non-empty + cursor-is-a-lower-bound (insert rewinds it) guarantee a
  // clear bit at or after the cursor.
  const std::uint64_t id = removed_.find_next_zero(first_cursor_);
  removed_.set(id);
  --size_;
  first_cursor_ = id + 1;
  return id;
}

void CompactTaskPool::reset() {
  removed_.clear();
  size_ = capacity_;
  first_cursor_ = 0;
  tail_.clear();
  compacted_ = false;
}

std::vector<std::uint64_t> CompactTaskPool::ids() const {
  std::vector<std::uint64_t> out;
  out.reserve(size_);
  for (std::uint64_t id = removed_.find_next_zero(0); id < capacity_;
       id = removed_.find_next_zero(id + 1)) {
    out.push_back(id);
  }
  return out;
}

void CompactTaskPool::compact() {
  tail_.clear();
  tail_.reserve(size_);
  for (std::uint64_t id = removed_.find_next_zero(0); id < capacity_;
       id = removed_.find_next_zero(id + 1)) {
    tail_.push_back(id);
  }
  compacted_ = true;
}

}  // namespace hetsched
