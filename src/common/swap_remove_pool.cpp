#include "common/swap_remove_pool.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace hetsched {

SwapRemovePool::SwapRemovePool(std::uint64_t n) {
  allocate(n);
  size_ = n;
  fill_identity();
}

void SwapRemovePool::allocate(std::uint64_t n) {
  if (n > kMaxCapacity) {
    throw std::length_error(
        "SwapRemovePool: capacity would overflow the uint32 index "
        "(use TaskPool, which switches to the compact layout)");
  }
  // One block of 2n entries rather than an ids array and a positions
  // array of n each. Set-up builds many same-size pools in a row, and
  // glibc sets its heap trim threshold to twice the largest freed
  // mmapped chunk: with two n-entry arrays the heap top freed by one
  // pool exceeds that threshold and goes back to the kernel, so every
  // build page-faults its pool in again. A single 2n-entry chunk keeps
  // the freed top under twice its own size, and the next build reuses
  // it.
  slots_.resize(2 * n);
  capacity_ = n;
}

void SwapRemovePool::throw_empty(const char* what) {
  throw std::logic_error(what);
}

void SwapRemovePool::fill_identity() noexcept {
  for (std::uint64_t i = 0; i < capacity_; ++i) {
    id_at(i) = static_cast<std::uint32_t>(i);
    pos_of(i) = static_cast<std::uint32_t>(i);
  }
  index_dirty_ = false;
}

void SwapRemovePool::reindex() const noexcept {
  std::fill(slots_.begin() + static_cast<std::ptrdiff_t>(capacity_),
            slots_.end(), kAbsent);
  for (std::uint64_t pos = 0; pos < size_; ++pos) {
    pos_of(id_at(pos)) = static_cast<std::uint32_t>(pos);
  }
  index_dirty_ = false;
}

bool SwapRemovePool::insert(std::uint64_t id) {
  if (id >= capacity_) {
    throw std::out_of_range("SwapRemovePool::insert: id beyond capacity");
  }
  if (contains(id)) return false;
  pos_of(id) = static_cast<std::uint32_t>(size_);
  id_at(size_) = static_cast<std::uint32_t>(id);
  ++size_;
  if (id < first_cursor_) first_cursor_ = id;
  return true;
}

std::uint64_t SwapRemovePool::pop_first() {
  if (size_ == 0) {
    throw std::logic_error("SwapRemovePool::pop_first: pool is empty");
  }
  if (index_dirty_) reindex();
  // Non-empty + cursor-is-a-lower-bound (insert rewinds it) guarantee a
  // present id before the end, so the scan cannot run off the array.
  while (pos_of(first_cursor_) == kAbsent) {
    ++first_cursor_;
    assert(first_cursor_ < capacity_);
  }
  const std::uint64_t id = first_cursor_;
  remove(id);
  return id;
}

void SwapRemovePool::refill_present(const DynamicBitset& removed) {
  if (removed.size() != capacity_) allocate(removed.size());
  const std::uint64_t cap = capacity_;
  std::fill(slots_.begin() + static_cast<std::ptrdiff_t>(cap), slots_.end(),
            kAbsent);
  std::uint64_t out = 0;
  const std::uint64_t words = removed.word_count();
  for (std::uint64_t w = 0; w < words; ++w) {
    std::uint64_t present = ~removed.word(w);
    const std::uint64_t word_base = w << 6;
    if (word_base + 64 > cap) {  // clip phantom bits past the capacity
      present &= (1ull << (cap - word_base)) - 1;
    }
    while (present != 0) {
      const auto id = static_cast<std::uint32_t>(
          word_base + static_cast<std::uint64_t>(std::countr_zero(present)));
      id_at(out) = id;
      pos_of(id) = static_cast<std::uint32_t>(out);
      ++out;
      present &= present - 1;
    }
  }
  size_ = out;
  first_cursor_ = 0;
  index_dirty_ = false;
}

void SwapRemovePool::reset() noexcept {
  size_ = capacity_;
  first_cursor_ = 0;
  fill_identity();
}

std::vector<std::uint64_t> SwapRemovePool::ids() const {
  std::vector<std::uint64_t> out(size_);
  for (std::uint64_t pos = 0; pos < size_; ++pos) out[pos] = id_at(pos);
  return out;
}

}  // namespace hetsched
