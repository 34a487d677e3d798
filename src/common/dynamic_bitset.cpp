#include "common/dynamic_bitset.hpp"

#include <algorithm>
#include <bit>

namespace hetsched {

namespace {
constexpr std::size_t words_for(std::size_t n_bits) {
  return (n_bits + 63) / 64;
}
}  // namespace

DynamicBitset::DynamicBitset(std::size_t n_bits, bool value)
    : n_bits_(n_bits), words_(words_for(n_bits), value ? ~0ULL : 0ULL) {
  if (value && n_bits_ % 64 != 0 && !words_.empty()) {
    // Keep bits past the logical end clear so count()/all() stay exact.
    words_.back() &= (1ULL << (n_bits_ % 64)) - 1;
  }
}

std::size_t DynamicBitset::count() const noexcept {
  std::size_t total = 0;
  for (const std::uint64_t w : words_) {
    total += static_cast<std::size_t>(std::popcount(w));
  }
  return total;
}

bool DynamicBitset::none() const noexcept {
  return std::all_of(words_.begin(), words_.end(),
                     [](std::uint64_t w) { return w == 0; });
}

bool DynamicBitset::all() const noexcept { return count() == n_bits_; }

void DynamicBitset::clear() noexcept {
  std::fill(words_.begin(), words_.end(), 0ULL);
}

void DynamicBitset::resize(std::size_t n_bits) {
  words_.resize(words_for(n_bits), 0ULL);
  if (n_bits < n_bits_ && n_bits % 64 != 0 && !words_.empty()) {
    words_.back() &= (1ULL << (n_bits % 64)) - 1;
  }
  n_bits_ = n_bits;
}

std::size_t DynamicBitset::find_next_zero(std::size_t from) const noexcept {
  if (from >= n_bits_) return n_bits_;
  std::size_t w = from >> 6;
  // Mask off bits below `from` in the first word so they read as set.
  std::uint64_t inverted = ~words_[w] & (~0ULL << (from & 63));
  for (;;) {
    if (inverted != 0) {
      const std::size_t pos =
          (w << 6) + static_cast<std::size_t>(std::countr_zero(inverted));
      // Padding bits past the logical end are stored clear; clamp.
      return pos < n_bits_ ? pos : n_bits_;
    }
    if (++w == words_.size()) return n_bits_;
    inverted = ~words_[w];
  }
}

}  // namespace hetsched
