// Microbenchmarks (google-benchmark) for the master-side data
// structures that dominate scheduler decision cost: the swap-remove
// task pool, the dynamic bitsets, and the engine's event loop.
#include <benchmark/benchmark.h>

#include "common/dynamic_bitset.hpp"
#include "common/rng.hpp"
#include "common/swap_remove_pool.hpp"
#include "outer/outer_factory.hpp"
#include "platform/platform.hpp"
#include "sim/engine.hpp"
#include "sim/strategy.hpp"

namespace {

using namespace hetsched;

void BM_PoolPopRandom(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Rng rng(1);
  SwapRemovePool pool(n);
  for (auto _ : state) {
    if (pool.empty()) {
      state.PauseTiming();
      pool = SwapRemovePool(n);
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(pool.pop_random(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolPopRandom)->Arg(10000)->Arg(1000000);

void BM_PoolRemoveById(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Rng rng(2);
  SwapRemovePool pool(n);
  for (auto _ : state) {
    if (pool.empty()) {
      state.PauseTiming();
      pool = SwapRemovePool(n);
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(pool.remove(rng.next_below(n)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolRemoveById)->Arg(1000000);

void BM_AssignmentRunIteration(benchmark::State& state) {
  // Consumer-side cost of the run facade: expanding an Assignment of
  // 64 full TaskRuns (4096 tasks) through for_each_task.
  Assignment a;
  for (std::uint32_t r = 0; r < 64; ++r) {
    a.task_runs.push_back(
        TaskRun{static_cast<TaskId>(r) * 4096, ~std::uint64_t{0}, 40, 64});
  }
  for (auto _ : state) {
    std::uint64_t sum = 0;
    a.for_each_task([&](TaskId id) { sum += id; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 64 * 64);
  state.SetLabel("items = tasks visited");
}
BENCHMARK(BM_AssignmentRunIteration);

void BM_AssignmentScalarIteration(benchmark::State& state) {
  // Per-task baseline for BM_AssignmentRunIteration: the same 4096
  // task ids carried as scalars in Assignment::tasks.
  Assignment a;
  for (std::uint32_t r = 0; r < 64; ++r) {
    for (std::uint32_t b = 0; b < 64; ++b) {
      a.tasks.push_back(static_cast<TaskId>(r) * 4096 + b * 40);
    }
  }
  for (auto _ : state) {
    std::uint64_t sum = 0;
    a.for_each_task([&](TaskId id) { sum += id; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 64 * 64);
  state.SetLabel("items = tasks visited");
}
BENCHMARK(BM_AssignmentScalarIteration);

void BM_BitsetSetTest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  DynamicBitset bits(n);
  Rng rng(3);
  for (auto _ : state) {
    const std::size_t pos = rng.next_below(n);
    benchmark::DoNotOptimize(bits.set_if_clear(pos));
    benchmark::DoNotOptimize(bits.test(pos));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitsetSetTest)->Arg(1 << 20);

void BM_FullSimulationOuter(benchmark::State& state) {
  // End-to-end simulator throughput: one complete DynamicOuter2Phases
  // run, n x n tasks on 16 heterogeneous workers.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Rng rng(4);
  const Platform platform =
      make_platform(UniformIntervalSpeeds(10.0, 100.0), 16, rng);
  OuterStrategyOptions options;
  options.phase2_fraction = 0.02;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    auto strategy = make_outer_strategy("DynamicOuter2Phases", OuterConfig{n},
                                        16, runs + 1, options);
    benchmark::DoNotOptimize(simulate(*strategy, platform));
    ++runs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(runs) * n * n);
  state.SetLabel("items = tasks simulated");
}
BENCHMARK(BM_FullSimulationOuter)->Arg(50)->Arg(100)->Arg(200);

}  // namespace

BENCHMARK_MAIN();
