// Low-overhead hierarchical wall-clock self-profiler.
//
// The simulated clock tells you where *simulated* time goes; this
// profiler answers the operator's question instead — where the *wall
// clock* of a multi-hour campaign goes on the host: the engine event
// loop (which contains every strategy on_request / serve / retire
// dispatch), strategy construction vs in-place reset, the stat-shard
// aggregation, and the exporters.
//
// Design constraints, in order:
//  1. Zero cost when off: a ProfScope built on a null shard performs
//     no clock read and no stores (one predictable branch).
//  2. Deterministic output shape: accumulation happens in plain
//     per-shard structs (one per rep-stat shard, single writer each)
//     that are merged in shard order, exactly like the rep-stat shards
//     in core/experiment.cpp — so a profiled run aggregates its timings
//     identically for any thread count. (The ns values themselves are
//     wall-clock measurements and naturally vary run to run.)
//  3. O(1) clock reads per repetition, never per event: sites wrap a
//     whole engine run or a strategy rewind, not individual requests,
//     so the < 1% overhead gate holds on every workload size
//     (tests/obs/profiler_test.cpp pins the read count with a counting
//     clock).
//
// Scopes nest: each site accumulates inclusive time plus self time
// (inclusive minus time spent in scopes opened inside it), so a
// hierarchy like export-inside-analyze attributes every nanosecond to
// exactly one site's self column.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace hetsched {

class JsonWriter;  // common/json.hpp

/// The profiler site taxonomy (docs/observability.md#self-profiler).
enum class ProfSite : std::uint8_t {
  kStrategyBuild = 0,  // make_*_strategy: first construction of a rep context
  kStrategyReset,      // Strategy::reset: in-place rewind for the next rep
  kEngineRun,          // one simulate call: the event loop,
                       // including all strategy on_request / serve / retire
  kAggregate,          // stat-shard merging in run_experiment
  kExport,             // exporters: trace / metrics / report serialization
  kAnalyze,            // post-hoc trace analysis (obs/analyze.hpp)
  kCount
};

inline constexpr std::size_t kNumProfSites =
    static_cast<std::size_t>(ProfSite::kCount);

/// Stable site name ("engine.run", ...) used in JSON and BENCH_PERF.
const char* to_string(ProfSite site) noexcept;

/// Monotonic nanosecond clock. Injectable (globally, for tests) so the
/// overhead gate can count reads instead of trusting a wall-clock
/// measurement on a noisy CI runner.
using ProfClock = std::uint64_t (*)();
std::uint64_t prof_default_clock() noexcept;
/// Test-only override; nullptr restores the steady_clock default.
void set_prof_clock_for_testing(ProfClock clock) noexcept;
ProfClock prof_clock() noexcept;

/// Single-writer accumulation shard: one per rep-stat shard (or one per
/// thread doing exclusive work). Plain integers — no atomics — so the
/// hot path is two clock reads and a handful of adds per scope.
struct ProfShard {
  struct Site {
    std::uint64_t ns = 0;       // inclusive wall time
    std::uint64_t self_ns = 0;  // inclusive minus nested scopes
    std::uint64_t calls = 0;
  };
  std::array<Site, kNumProfSites> sites{};

  /// Folds `other`'s totals in (nesting state is not merged; merge only
  /// quiesced shards).
  void merge(const ProfShard& other) noexcept;

  // Scope-nesting state (ProfScope internals). Depth beyond the fixed
  // stack falls back to inclusive-only accounting rather than UB.
  struct Frame {
    ProfSite site;
    std::uint64_t child_ns;
  };
  std::array<Frame, 16> stack{};
  std::uint32_t depth = 0;
};

/// RAII scoped timer. Null shard = fully disabled (no clock read).
class ProfScope {
 public:
  ProfScope(ProfShard* shard, ProfSite site) noexcept
      : shard_(shard), site_(site) {
    if (shard_ == nullptr) return;
    clock_ = prof_clock();
    if (shard_->depth < shard_->stack.size()) {
      shard_->stack[shard_->depth] = {site_, 0};
    }
    ++shard_->depth;
    start_ = clock_();
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

  ~ProfScope() {
    if (shard_ == nullptr) return;
    const std::uint64_t inclusive = clock_() - start_;
    --shard_->depth;
    auto& site = shard_->sites[static_cast<std::size_t>(site_)];
    site.ns += inclusive;
    ++site.calls;
    if (shard_->depth < shard_->stack.size()) {
      const std::uint64_t child = shard_->stack[shard_->depth].child_ns;
      site.self_ns += inclusive > child ? inclusive - child : 0;
      if (shard_->depth > 0 && shard_->depth - 1 < shard_->stack.size()) {
        shard_->stack[shard_->depth - 1].child_ns += inclusive;
      }
    } else {
      site.self_ns += inclusive;  // overflowed the nesting stack
    }
  }

 private:
  ProfShard* shard_;
  ProfSite site_;
  ProfClock clock_ = nullptr;
  std::uint64_t start_ = 0;
};

/// Merged per-site totals, carried in ExperimentResult and serialized
/// into experiment/campaign JSON and BENCH_PERF.json.
struct ProfileTotals {
  std::array<ProfShard::Site, kNumProfSites> sites{};
  bool enabled = false;

  void add(const ProfShard& shard) noexcept;
  const ProfShard::Site& site(ProfSite s) const noexcept {
    return sites[static_cast<std::size_t>(s)];
  }
  /// Sum of self_ns over all sites: total attributed wall time.
  std::uint64_t total_self_ns() const noexcept;
};

/// Writes {"<site>":{"ns":..,"self_ns":..,"calls":..},...} as a JSON
/// object value (the caller emits the key).
void write_profile_json(JsonWriter& json, const ProfileTotals& totals);

}  // namespace hetsched
