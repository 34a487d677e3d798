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

#include <bit>
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
  /// below size(). This is the batch side of the enabled-task
  /// frontier: one call retires up to 64 candidates where set() would
  /// cost a stamped read-modify-write each.
  void or_shifted(std::size_t base, std::uint64_t bits) noexcept {
    if (bits == 0) return;
    live_word(base >> 6) |= bits << (base & 63);
    if ((base & 63) != 0) {
      const std::uint64_t high = bits >> (64 - (base & 63));
      if (high != 0) live_word((base >> 6) + 1) |= high;
    }
  }

  /// Strided batch set: bit b of `bits` sets position base + b * stride.
  /// The scattered side of run retirement: stride 1 delegates to the
  /// word-level or_shifted; larger strides (an outer column, a matmul
  /// k-face through the mirrors) walk the set bits with one stamped
  /// read-modify-write each — the per-word writes are inherent to the
  /// transposed orientation, but the per-bit call and bookkeeping
  /// overhead of a caller-side loop is not.
  void set_run(std::size_t base, std::uint64_t bits,
               std::size_t stride) noexcept {
    if (stride == 1) {
      or_shifted(base, bits);
      return;
    }
    std::uint64_t rest = bits;
    while (rest != 0) {
      set(base + static_cast<std::size_t>(std::countr_zero(rest)) * stride);
      rest &= rest - 1;
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
  // The enabled-task frontier of the dynamic strategies intersects
  // index masks against the task pool's removed-set 64 bits at a time;
  // these accessors expose the logical (generation-resolved) words
  // without materializing pending clears.

  /// Number of 64-bit words backing the set.
  std::size_t word_count() const noexcept { return words_.size(); }

  /// Logical value of word `w` (w < word_count()): stale-stamped words
  /// read as zero, and bits past size() are stored clear.
  std::uint64_t word(std::size_t w) const noexcept { return logical_word(w); }

  /// Logical word `w`, or zero past the last word — for readers that
  /// gather a bit window crossing the end of the array.
  std::uint64_t word_or_zero(std::size_t w) const noexcept {
    return w < words_.size() ? logical_word(w) : 0;
  }

  /// Calls fn(pos) for every set bit in [begin, end), ascending.
  template <typename Fn>
  void for_each_set_in_range(std::size_t begin, std::size_t end,
                             Fn&& fn) const {
    if (end > n_bits_) end = n_bits_;
    if (begin >= end) return;
    std::size_t w = begin >> 6;
    const std::size_t last = (end - 1) >> 6;
    std::uint64_t bits = logical_word(w) & (~0ULL << (begin & 63));
    for (;;) {
      if (w == last && (end & 63) != 0) bits &= (1ULL << (end & 63)) - 1;
      while (bits != 0) {
        fn((w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
        bits &= bits - 1;
      }
      if (w == last) return;
      bits = logical_word(++w);
    }
  }

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

  /// word_or_zero(w) without generation resolution.
  std::uint64_t word_or_zero_m(std::size_t w) const noexcept {
    return w < words_.size() ? word_m(w) : 0;
  }

  /// set(pos) without generation resolution.
  void set_m(std::size_t pos) noexcept {
    assert(gen_[pos >> 6] == gen_id_ &&
           "serial _m access to unmaterialized word");
    words_[pos >> 6] |= 1ULL << (pos & 63);
  }

  /// or_shifted(base, bits) without generation resolution.
  void or_shifted_m(std::size_t base, std::uint64_t bits) noexcept {
    if (bits == 0) return;
    assert(gen_[base >> 6] == gen_id_ &&
           "serial _m access to unmaterialized word");
    words_[base >> 6] |= bits << (base & 63);
    if ((base & 63) != 0) {
      const std::uint64_t high = bits >> (64 - (base & 63));
      if (high != 0) {
        assert(gen_[(base >> 6) + 1] == gen_id_ &&
               "serial _m access to unmaterialized word");
        words_[(base >> 6) + 1] |= high;
      }
    }
  }

  /// set_run(base, bits, stride) without generation resolution.
  void set_run_m(std::size_t base, std::uint64_t bits,
                 std::size_t stride) noexcept {
    if (stride == 1) {
      or_shifted_m(base, bits);
      return;
    }
    std::uint64_t rest = bits;
    while (rest != 0) {
      set_m(base + static_cast<std::size_t>(std::countr_zero(rest)) * stride);
      rest &= rest - 1;
    }
  }

  /// Raw word storage for flattened serial hot loops: the per-word _m
  /// checks hoisted out of the loop entirely. Same precondition as the
  /// _m accessors — every word generation-current (materialize_all(),
  /// or the owning pool's materialize_presence()) — verified once per
  /// grab in debug builds instead of once per word.
  std::uint64_t* raw_words_m() noexcept {
    assert(all_words_current() && "raw_words_m on unmaterialized bitset");
    return words_.data();
  }
  const std::uint64_t* raw_words_m() const noexcept {
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

/// Word-parallel range intersection: calls fn(pos) for every pos in
/// [0, mask.size()) with mask[pos] set and absent[base + pos] clear,
/// in ascending order. `base` is an arbitrary bit offset into `absent`
/// (the window need not be word-aligned); window bits past
/// absent.size() read as clear, so callers should keep
/// base + mask.size() <= absent.size().
///
/// This is the enabled-task frontier kernel: `mask` is a worker's known
/// index set (e.g. K + k over the contiguous k-run of task ids starting
/// at `base`) and `absent` is the pool's removed-set, so one AND-NOT
/// per 64 candidates replaces 64 random-access pool probes. fn may
/// remove the reported bit from `absent` (the word window is read
/// before its bits are visited) but must not resize either set.
template <typename Fn>
void for_each_masked_present(const DynamicBitset& mask,
                             const DynamicBitset& absent, std::size_t base,
                             Fn&& fn) {
  const std::size_t shift = base & 63;
  const std::size_t q0 = base >> 6;
  const std::size_t words = mask.word_count();
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t m = mask.word(w);
    if (m == 0) continue;
    std::uint64_t gone = absent.word_or_zero(q0 + w) >> shift;
    if (shift != 0) gone |= absent.word_or_zero(q0 + w + 1) << (64 - shift);
    std::uint64_t hits = m & ~gone;
    while (hits != 0) {
      fn((w << 6) + static_cast<std::size_t>(std::countr_zero(hits)));
      hits &= hits - 1;
    }
  }
}

/// Word-granular variant of for_each_masked_present: instead of one
/// callback per surviving bit, calls fn(word, hits) once per mask word
/// with at least one survivor, where `hits` has bit b set iff
/// mask[word * 64 + b] is set and absent[base + word * 64 + b] is
/// clear. Callers that retire whole candidate groups (the dynamic
/// strategies' run/face scans) use this to pair one batch write
/// (or_shifted / TaskPool::remove_present_bits) with the per-bit walk,
/// instead of a stamped read-modify-write per candidate. fn may set
/// the reported bits in `absent` — each window is gathered before fn
/// runs — but must not resize either set.
template <typename Fn>
void for_each_masked_present_word(const DynamicBitset& mask,
                                  const DynamicBitset& absent,
                                  std::size_t base, Fn&& fn) {
  const std::size_t shift = base & 63;
  const std::size_t q0 = base >> 6;
  const std::size_t words = mask.word_count();
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t m = mask.word(w);
    if (m == 0) continue;
    std::uint64_t gone = absent.word_or_zero(q0 + w) >> shift;
    if (shift != 0) gone |= absent.word_or_zero(q0 + w + 1) << (64 - shift);
    const std::uint64_t hits = m & ~gone;
    if (hits != 0) fn(w, hits);
  }
}

/// Materialized-serial variant of for_each_masked_present_word: the
/// absent-side window is gathered with the unstamped _m readers (absent
/// must be materialized; see DynamicBitset::materialize_all). The mask
/// side keeps the stamped read — masks are a handful of hot words and
/// may legitimately carry a pending clear. fn may set the reported bits
/// in `absent` through the _m writers.
template <typename Fn>
void for_each_masked_present_word_m(const DynamicBitset& mask,
                                    const DynamicBitset& absent,
                                    std::size_t base, Fn&& fn) {
  const std::size_t shift = base & 63;
  const std::size_t q0 = base >> 6;
  const std::size_t words = mask.word_count();
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t m = mask.word(w);
    if (m == 0) continue;
    std::uint64_t gone = absent.word_or_zero_m(q0 + w) >> shift;
    if (shift != 0) gone |= absent.word_or_zero_m(q0 + w + 1) << (64 - shift);
    const std::uint64_t hits = m & ~gone;
    if (hits != 0) fn(w, hits);
  }
}

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
