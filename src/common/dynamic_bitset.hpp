// A compact runtime-sized bitset over a plain 64-bit word array.
//
// Tracks per-worker block ownership (O(N) or O(N^2) bits), the
// master's processed-task map (up to N^3 bits for matrix multiply) and
// the task pools' removed-sets. std::vector<bool> would work but gives
// no popcount and poor codegen; this keeps the word array explicit.
//
// clear() is a fill. Every replication drains its pool completely, so
// a lazy (stamped) clear would have nothing to skip, and the strategies'
// request kernels read and write the words directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hetsched {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(std::size_t n_bits, bool value = false);

  /// Number of bits.
  std::size_t size() const noexcept { return n_bits_; }

  bool test(std::size_t pos) const noexcept {
    return (words_[pos >> 6] >> (pos & 63)) & 1ULL;
  }

  void set(std::size_t pos) noexcept {
    words_[pos >> 6] |= 1ULL << (pos & 63);
  }

  void reset(std::size_t pos) noexcept {
    words_[pos >> 6] &= ~(1ULL << (pos & 63));
  }

  /// Sets the bit and reports whether it was previously clear.
  bool set_if_clear(std::size_t pos) noexcept {
    const std::uint64_t mask = 1ULL << (pos & 63);
    std::uint64_t& w = words_[pos >> 6];
    const bool was_clear = (w & mask) == 0;
    w |= mask;
    return was_clear;
  }

  /// Number of set bits.
  std::size_t count() const noexcept;

  /// True when every bit is clear.
  bool none() const noexcept;

  /// True when every bit is set.
  bool all() const noexcept;

  /// Clears all bits (one fill over the words); size is unchanged.
  void clear() noexcept;

  /// Grows or shrinks to n_bits; new bits are clear.
  void resize(std::size_t n_bits);

  /// Position of the first clear bit at or after `from`, or size() if
  /// every remaining bit is set.
  std::size_t find_next_zero(std::size_t from) const noexcept;

  // -- Word-level view ------------------------------------------------

  /// Number of 64-bit words backing the set.
  std::size_t word_count() const noexcept { return words_.size(); }

  /// Word `w` (w < word_count()); bits past size() are stored clear.
  std::uint64_t word(std::size_t w) const noexcept { return words_[w]; }

  /// Raw word storage for the dynamic strategies' frontier kernels,
  /// which read and write the task pool's removed-set (through
  /// TaskPool::raw_removed_words) and their transposed mirrors 64
  /// candidates per AND-NOT. Writers must keep bits past size() clear.
  std::uint64_t* raw_words() noexcept { return words_.data(); }

  friend bool operator==(const DynamicBitset& a,
                         const DynamicBitset& b) = default;

 private:
  std::size_t n_bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace hetsched
