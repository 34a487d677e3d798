// A compact runtime-sized bitset with O(1) whole-set clear.
//
// Tracks per-worker block ownership (O(N) or O(N^2) bits), the
// master's processed-task map (up to N^3 bits for matrix multiply) and
// the compact task pool's removed-set. std::vector<bool> would work but
// gives no popcount and poor codegen; this keeps the word array
// explicit.
//
// clear() is a generation bump, not a fill: each 64-bit word carries a
// 32-bit generation stamp, and a word whose stamp is stale reads as
// zero (it is materialized on the first write after a clear). That
// makes rep-context reuse O(active words touched) instead of
// O(total bits), at a cost of 0.5 bit of stamp per stored bit and one
// extra compare on the access paths.
#pragma once

#include <cassert>
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
    return (logical_word(pos >> 6) >> (pos & 63)) & 1ULL;
  }

  void set(std::size_t pos) noexcept {
    live_word(pos >> 6) |= 1ULL << (pos & 63);
  }

  void reset(std::size_t pos) noexcept {
    live_word(pos >> 6) &= ~(1ULL << (pos & 63));
  }

  /// Sets the bit and reports whether it was previously clear.
  bool set_if_clear(std::size_t pos) noexcept {
    const std::uint64_t mask = 1ULL << (pos & 63);
    std::uint64_t& w = live_word(pos >> 6);
    const bool was_clear = (w & mask) == 0;
    w |= mask;
    return was_clear;
  }

  /// ORs `bits` into positions [base, base + 64): bit b of `bits` sets
  /// position base + b. The window need not be word-aligned (it is
  /// split across at most two words). Callers must keep every set bit
  /// below size(). One call writes up to 64 bits where set() would
  /// cost a stamped read-modify-write each.
  void or_shifted(std::size_t base, std::uint64_t bits) noexcept {
    if (bits == 0) return;
    live_word(base >> 6) |= bits << (base & 63);
    if ((base & 63) != 0) {
      const std::uint64_t high = bits >> (64 - (base & 63));
      if (high != 0) live_word((base >> 6) + 1) |= high;
    }
  }

  /// Number of set bits.
  std::size_t count() const noexcept;

  /// True when every bit is clear.
  bool none() const noexcept;

  /// True when every bit is set.
  bool all() const noexcept;

  /// Clears all bits in O(1) (generation bump); size is unchanged.
  void clear() noexcept;

  /// Grows or shrinks to n_bits; new bits are clear.
  void resize(std::size_t n_bits);

  /// Position of the first clear bit at or after `from`, or size() if
  /// every remaining bit is set.
  std::size_t find_next_zero(std::size_t from) const noexcept;

  // -- Word-level view ------------------------------------------------
  // The logical (generation-resolved) words, read without
  // materializing pending clears.

  /// Number of 64-bit words backing the set.
  std::size_t word_count() const noexcept { return words_.size(); }

  /// Logical value of word `w` (w < word_count()): stale-stamped words
  /// read as zero, and bits past size() are stored clear.
  std::uint64_t word(std::size_t w) const noexcept { return logical_word(w); }

  // -- Materialized access -------------------------------------------
  // The dynamic strategies' request loop re-reads the same shared
  // bitsets constantly, so it materializes them once per rep — every
  // word made current — and then skips the generation resolution: one
  // array index per word instead of a stamp load and branch per access.
  // In the request hot loop the stamp arrays are pure cache pressure:
  // dropping them halves the lines the frontier scan touches. Point
  // writers (set, insert/remove) keep materialized words current, so
  // the precondition survives until the next clear()/resize().

  /// Applies pending clears so every word is generation-current; after
  /// this, the _m accessors are valid until the next clear() or
  /// resize(). O(word_count), idempotent.
  void materialize_all() noexcept { materialize(); }

  /// word(w) without generation resolution. Requires materialize_all()
  /// since the last clear()/resize().
  std::uint64_t word_m(std::size_t w) const noexcept {
    assert(gen_[w] == gen_id_ && "serial _m access to unmaterialized word");
    return words_[w];
  }

  /// set(pos) without generation resolution.
  void set_m(std::size_t pos) noexcept {
    assert(gen_[pos >> 6] == gen_id_ &&
           "serial _m access to unmaterialized word");
    words_[pos >> 6] |= 1ULL << (pos & 63);
  }

  /// Raw word storage for the dynamic strategies' frontier kernels:
  /// the per-word _m checks hoisted out of the loop entirely. This is
  /// how they read and write the task pool's removed-set (through
  /// TaskPool::raw_removed_words_m) and their transposed mirrors, 64
  /// candidates per AND-NOT. Same precondition as the
  /// _m accessors — every word generation-current (materialize_all(),
  /// or the owning pool's materialize_presence()) — verified once per
  /// grab in debug builds instead of once per word.
  std::uint64_t* raw_words_m() noexcept {
    assert(all_words_current() && "raw_words_m on unmaterialized bitset");
    return words_.data();
  }

  /// Logical comparison (generation representations may differ).
  friend bool operator==(const DynamicBitset& a, const DynamicBitset& b);

 private:
  /// The word as the reader should see it: stale stamp means "cleared
  /// since last written".
  std::uint64_t logical_word(std::size_t w) const noexcept {
    return gen_[w] == gen_id_ ? words_[w] : 0;
  }

  /// The word as a writable slot, materializing the post-clear zero if
  /// the stamp is stale.
  std::uint64_t& live_word(std::size_t w) noexcept {
    if (gen_[w] != gen_id_) {
      gen_[w] = gen_id_;
      words_[w] = 0;
    }
    return words_[w];
  }

  /// Applies pending clears so words_ alone is authoritative (used by
  /// resize and generation wrap-around).
  void materialize() noexcept;

  bool all_words_current() const noexcept {
    for (std::size_t w = 0; w < gen_.size(); ++w) {
      if (gen_[w] != gen_id_) return false;
    }
    return true;
  }

  std::size_t n_bits_ = 0;
  std::uint32_t gen_id_ = 0;
  std::vector<std::uint64_t> words_;
  std::vector<std::uint32_t> gen_;
};

/// ORs every set bit of `mask` into dst at offset base: dst[base + p]
/// |= mask[p]. Used to rebuild a worker's owned-block rows
/// word-parallel when the untainted fast path hands over to exact
/// per-block accounting.
inline void or_mask_into_range(DynamicBitset& dst, const DynamicBitset& mask,
                               std::size_t base) {
  const std::size_t words = mask.word_count();
  for (std::size_t w = 0; w < words; ++w) {
    dst.or_shifted(base + (w << 6), mask.word(w));
  }
}

}  // namespace hetsched
