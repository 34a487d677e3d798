// Deterministic, stream-splittable pseudo-random number generation.
//
// All stochastic behaviour in the library (speed draws, task selection,
// speed perturbation) flows from a single 64-bit experiment seed through
// named sub-streams so that every figure row is exactly reproducible and
// independent choices never share a stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace hetsched {

/// SplitMix64: tiny generator used to seed and to derive sub-streams.
/// Passes BigCrush when used as a 64-bit generator; here it is mostly a
/// seed scrambler (recommended by the xoshiro authors).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna). Fast, high-quality 64-bit PRNG;
/// the workhorse generator for all simulation randomness.
class Rng {
 public:
  /// Seeds the four words of state from a SplitMix64 scramble of `seed`.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept;

  /// Uniform 64-bit word. Defined inline (as are the derived draws
  /// below): one draw per served task makes this the hot path, and a
  /// cross-TU call would keep the state out of registers.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl_(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl_(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, n). Uses Lemire's unbiased multiply-shift
  /// rejection method. Requires n > 0.
  std::uint64_t next_below(std::uint64_t n) noexcept {
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Removes and returns a uniform element of `v`: one next_below
  /// draw, then swap-remove (the last element fills the hole), so the
  /// draw sequence fixes both the value and the remaining order.
  /// Requires a non-empty `v`. The data-aware strategies draw each
  /// fresh index from a worker's unknown set this way.
  std::uint32_t take_uniform(std::vector<std::uint32_t>& v) noexcept {
    const auto pos = static_cast<std::size_t>(next_below(v.size()));
    const std::uint32_t x = v[pos];
    v[pos] = v.back();
    v.pop_back();
    return x;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return next_double() < p; }

  /// Minimal std::uniform_random_bit_generator conformance so the Rng
  /// can drive <algorithm> facilities such as std::shuffle.
  using result_type = std::uint64_t;
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }
  result_type operator()() noexcept { return next_u64(); }

 private:
  static constexpr std::uint64_t rotl_(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

/// Derives an independent stream seed from (seed, tag). Different tags
/// give statistically independent generators for the same experiment
/// seed; used to decouple e.g. the platform draw from strategy choices.
std::uint64_t derive_stream(std::uint64_t seed, std::string_view tag) noexcept;

}  // namespace hetsched
