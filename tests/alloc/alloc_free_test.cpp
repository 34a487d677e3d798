// Pins the PR's core perf claim: after warm-up, the steady-state
// request loop performs ZERO heap allocations per on_request, and
// Strategy::reset() performs no per-task allocation either.
//
// Built as its own binary (hetsched_alloc_tests) because it replaces
// the global operator new/delete with counting versions — that must
// not leak into the main test binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "matmul/matmul_factory.hpp"
#include "outer/outer_factory.hpp"
#include "sim/strategy.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

}  // namespace

// Counting global allocator. Counts every operator new; delete is left
// alone (frees are fine in the hot loop — only allocations regress).
//
// The replacement new allocates with malloc, so the replacement delete
// frees with free. GCC 12 inlines that delete into callers whose pointer
// came from a new-expression and, not looking through the replacement
// new, flags the free under -Wmismatched-new-delete. The pairing is
// correct by construction, so the warning is silenced for these
// definitions only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace hetsched {
namespace {

std::unique_ptr<Strategy> make_named(const std::string& name,
                                     std::uint64_t seed) {
  constexpr std::uint32_t kN = 24;
  constexpr std::uint32_t kWorkers = 4;
  if (name.find("Outer") != std::string::npos) {
    OuterStrategyOptions options;
    options.phase2_fraction = 0.2;
    return make_outer_strategy(name, OuterConfig{kN}, kWorkers, seed, options);
  }
  MatmulStrategyOptions options;
  options.phase2_fraction = 0.2;
  return make_matmul_strategy(name, MatmulConfig{kN}, kWorkers, seed, options);
}

/// Full drain through the scratch API; returns requests served. Uses a
/// stack bitmask for liveness so the drain itself cannot allocate.
std::uint64_t drain(Strategy& s, Assignment& scratch) {
  std::uint64_t served = 0;
  std::uint32_t retired = 0;
  std::uint32_t w = 0;
  std::uint64_t alive = ~std::uint64_t{0};  // workers() <= 64 in this test
  while (retired < s.workers()) {
    if ((alive >> w) & 1) {
      if (s.on_request(w, scratch)) {
        ++served;
      } else {
        alive &= ~(std::uint64_t{1} << w);
        ++retired;
      }
    }
    w = (w + 1) % s.workers();
  }
  return served;
}

class AllocFree : public ::testing::TestWithParam<const char*> {};

TEST_P(AllocFree, SteadyStateRequestLoopDoesNotAllocate) {
  auto strategy = make_named(GetParam(), 4242);
  Assignment scratch;
  // Warm-up drain: grows the scratch vectors and any per-worker state
  // to their high-water marks.
  const std::uint64_t warm_served = drain(*strategy, scratch);
  ASSERT_GT(warm_served, 0u);
  if (!strategy->reset(4242)) {
    GTEST_SKIP() << GetParam() << " does not support reset()";
  }

  g_alloc_count.store(0, std::memory_order_relaxed);
  const std::uint64_t served = drain(*strategy, scratch);
  const std::uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(allocs, 0u) << "second drain served " << served
                        << " requests but allocated " << allocs << " times";
  EXPECT_EQ(served, warm_served);
}

// The run-length Assignment protocol must stay allocation-free too:
// once the scratch run vector (task_runs) is warmed, a second drain
// that demonstrably produces run-encoded grants performs zero
// allocations — the runs land in reused capacity, and the
// strategy-side emission scratch never grows after construction.
TEST_P(AllocFree, WarmedRunVectorsAllocateZeroOnRequestLoop) {
  auto strategy = make_named(GetParam(), 99);
  Assignment scratch;
  const std::uint64_t warm_served = drain(*strategy, scratch);
  ASSERT_GT(warm_served, 0u);
  if (!strategy->reset(99)) {
    GTEST_SKIP() << GetParam() << " does not support reset()";
  }

  g_alloc_count.store(0, std::memory_order_relaxed);
  std::uint64_t task_runs_seen = 0;
  std::uint64_t tasks_via_runs = 0;
  std::uint32_t retired = 0;
  std::uint32_t w = 0;
  std::uint64_t alive = ~std::uint64_t{0};
  while (retired < strategy->workers()) {
    if ((alive >> w) & 1) {
      if (strategy->on_request(w, scratch)) {
        task_runs_seen += scratch.task_runs.size();
        for (const TaskRun& r : scratch.task_runs) tasks_via_runs += r.count;
      } else {
        alive &= ~(std::uint64_t{1} << w);
        ++retired;
      }
    }
    w = (w + 1) % strategy->workers();
  }
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u)
      << "run-channel drain allocated";
  const std::string name(GetParam());
  if (name.find("Dynamic") != std::string::npos) {
    // The data-aware strategies must actually exercise the run
    // channels, or this test would vacuously pass on the scalar path.
    EXPECT_GT(task_runs_seen, 0u);
    EXPECT_GT(tasks_via_runs, 0u);
  }
}

TEST_P(AllocFree, ResetAfterWarmupDoesNotAllocate) {
  auto strategy = make_named(GetParam(), 7);
  Assignment scratch;
  drain(*strategy, scratch);
  if (!strategy->reset(7)) {
    GTEST_SKIP() << GetParam() << " does not support reset()";
  }
  drain(*strategy, scratch);

  g_alloc_count.store(0, std::memory_order_relaxed);
  ASSERT_TRUE(strategy->reset(7));
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PaperStrategies, AllocFree,
    ::testing::Values("RandomOuter", "SortedOuter", "DynamicOuter",
                      "DynamicOuter2Phases", "RandomMatrix", "SortedMatrix",
                      "DynamicMatrix", "DynamicMatrix2Phases"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

}  // namespace
}  // namespace hetsched
