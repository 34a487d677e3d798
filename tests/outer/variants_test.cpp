// Tests for the per-worker-switch, adaptive and memory-bounded variants.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "matmul/matmul_factory.hpp"
#include "outer/adaptive_outer.hpp"
#include "outer/bounded_lru.hpp"
#include "outer/dynamic_outer.hpp"
#include "outer/outer_factory.hpp"
#include "outer/per_worker_switch.hpp"
#include "platform/platform.hpp"
#include "rect/rect_strategies.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace hetsched {
namespace {

// Request sequence of one drain: FNV-1a over every answer (worker,
// blocks, tasks) plus the request and block counts.
struct Drain {
  std::uint64_t hash = 14695981039346656037ull;
  std::uint64_t requests = 0;
  std::uint64_t blocks = 0;

  void mix(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (v >> (8 * b)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
};

// Serves workers round-robin through the scratch request path until
// every worker has retired, mixing each answer into `d`. With
// `requeue_after` > 0, the tasks of the first task-carrying answer from
// that request on go back through requeue(), and its result is mixed.
void drain_into(Strategy& strategy, Drain& d, std::uint64_t requeue_after) {
  Assignment out;
  bool requeued = requeue_after == 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::uint32_t w = 0; w < strategy.workers(); ++w) {
      if (!strategy.on_request(w, out)) continue;
      progress = true;
      ++d.requests;
      d.blocks += out.block_count();
      d.mix(w);
      d.mix(out.block_count());
      out.for_each_block([&](const BlockRef& b) {
        d.mix(static_cast<std::uint64_t>(b.operand));
        d.mix(b.row);
        d.mix(b.col);
      });
      d.mix(out.task_count());
      out.for_each_task([&](TaskId t) { d.mix(t); });
      if (!requeued && d.requests >= requeue_after && out.task_count() > 0) {
        std::vector<TaskId> tasks;
        out.for_each_task([&](TaskId t) { tasks.push_back(t); });
        d.mix(strategy.requeue(tasks) ? 1 : 0);
        requeued = true;
      }
    }
  }
}

Drain drain_round_robin(Strategy& strategy) {
  Drain d;
  drain_into(strategy, d, 0);
  return d;
}

// One drain with a requeue mid-way, then reset(seed) and, where the
// strategy supports in-place reuse, a second plain drain. Both legs,
// and whether requeue and reset are supported, mix into one Drain.
Drain drain_requeue_reset(Strategy& strategy, std::uint64_t seed) {
  Drain d;
  drain_into(strategy, d, 7);
  const bool reused = strategy.reset(seed);
  d.mix(reused ? 1 : 0);
  if (reused) drain_into(strategy, d, 0);
  return d;
}

// The results/abl_* outputs depend on these exact request sequences
// (RNG draws, block order, task order), so any change to them fails
// here first. n = 40, 8 workers, seed 5 exercises both the data-aware
// and the random phase of each strategy.
TEST(VariantSequence, PerWorkerSwitchIsPinned) {
  const std::vector<double> speeds{10, 20, 30, 40, 50, 60, 70, 80};
  PerWorkerSwitchOuterStrategy strategy(OuterConfig{40}, speeds, 5, 4.0);
  const Drain d = drain_round_robin(strategy);
  EXPECT_EQ(d.requests, 242u);
  EXPECT_EQ(d.blocks, 432u);
  EXPECT_EQ(d.hash, 12311154549140517269ull);
}

TEST(VariantSequence, AdaptiveIsPinned) {
  AdaptiveOuterStrategy strategy(OuterConfig{40}, 8, 5);
  const Drain d = drain_round_robin(strategy);
  EXPECT_EQ(d.requests, 240u);
  EXPECT_EQ(d.blocks, 448u);
  EXPECT_EQ(d.hash, 6074066407525154688ull);
  EXPECT_TRUE(strategy.switched());
  EXPECT_EQ(strategy.tasks_at_switch(), 31u);
}

TEST(VariantSequence, BoundedLruIsPinned) {
  BoundedLruOuterStrategy strategy(OuterConfig{40}, 8, 5, 24);
  const Drain d = drain_round_robin(strategy);
  EXPECT_EQ(d.requests, 851u);
  EXPECT_EQ(d.blocks, 1213u);
  EXPECT_EQ(d.hash, 5519747877031869880ull);
  EXPECT_EQ(strategy.refetches(), 617u);
}

// Every strategy the factories build, pinned through the factory so
// the pins outlive any reshaping of the classes behind it. The sizes
// give the two-phase strategies a phase 2 (a fifth of the tasks).
struct FactoryGolden {
  const char* name;
  std::uint64_t requests;
  std::uint64_t blocks;
  std::uint64_t hash;
};

constexpr std::uint64_t kGoldenSeed = 13;
constexpr std::uint32_t kGoldenWorkers = 5;
constexpr double kGoldenPhase2 = 0.2;

void expect_golden(Strategy& strategy, const FactoryGolden& g) {
  const Drain d = drain_requeue_reset(strategy, kGoldenSeed + 1);
  EXPECT_EQ(d.requests, g.requests) << g.name;
  EXPECT_EQ(d.blocks, g.blocks) << g.name;
  EXPECT_EQ(d.hash, g.hash) << g.name;
}

TEST(VariantSequence, OuterFactoryStrategiesArePinned) {
  const FactoryGolden goldens[] = {
      {"RandomOuter", 1153, 480, 1818990641076586483ull},
      {"SortedOuter", 1153, 480, 9020716486803538279ull},
      {"DynamicOuter2Phases", 339, 395, 14090744772361139532ull},
      {"WorkStealingOuter", 576, 151, 11768395556201648925ull},
  };
  OuterStrategyOptions options;
  options.phase2_fraction = kGoldenPhase2;
  for (const FactoryGolden& g : goldens) {
    const auto strategy = make_outer_strategy(g.name, OuterConfig{24},
                                              kGoldenWorkers, kGoldenSeed,
                                              options);
    expect_golden(*strategy, g);
  }
}

TEST(VariantSequence, MatmulFactoryStrategiesArePinned) {
  const FactoryGolden goldens[] = {
      {"RandomMatrix", 1459, 2116, 8941007458950669873ull},
      {"SortedMatrix", 1459, 2430, 13397157201457975164ull},
      {"DynamicMatrix2Phases", 316, 1468, 15041224413368087931ull},
      {"AdaptiveMatmul", 42, 921, 1420397205794775392ull},
      {"WorkStealingMatmul", 729, 621, 8685739628879674980ull},
  };
  MatmulStrategyOptions options;
  options.phase2_fraction = kGoldenPhase2;
  for (const FactoryGolden& g : goldens) {
    const auto strategy = make_matmul_strategy(g.name, MatmulConfig{9},
                                               kGoldenWorkers, kGoldenSeed,
                                               options);
    expect_golden(*strategy, g);
  }
}

TEST(VariantSequence, RectFactoryStrategiesArePinned) {
  const FactoryGolden goldens[] = {
      {"RandomRect", 541, 238, 531819735635557077ull},
      {"SortedRect", 541, 127, 2039398529998327552ull},
      {"DynamicRect2Phases", 233, 192, 2207321149254816350ull},
  };
  for (const FactoryGolden& g : goldens) {
    const auto strategy =
        make_rect_strategy(g.name, RectConfig{18, 30}, kGoldenWorkers,
                           kGoldenSeed, kGoldenPhase2);
    expect_golden(*strategy, g);
  }
}

// Counts completions per task id.
class CompletionCounter final : public TraceSink {
 public:
  explicit CompletionCounter(std::uint64_t tasks) : done_(tasks, 0) {}
  void on_assignment(std::uint32_t, double, const Assignment&) override {}
  void on_completion(std::uint32_t, double, TaskId task) override {
    ++done_.at(task);
  }
  void on_retire(std::uint32_t, double) override {}
  const std::vector<std::uint32_t>& done() const { return done_; }

 private:
  std::vector<std::uint32_t> done_;
};

// Crashes worker 1 mid-run and checks the requeued tasks are served
// again: every task completes exactly once.
void expect_crash_recovers(Strategy& strategy) {
  const Platform platform({10.0, 30.0, 60.0});
  SimConfig config;
  config.faults.push_back(WorkerFault{2.0, 1, 0.0});
  CompletionCounter counter(strategy.total_tasks());
  const SimResult result = simulate(strategy, platform, config, &counter);
  EXPECT_GT(result.requeued_tasks, 0u);
  EXPECT_EQ(result.total_tasks_done, strategy.total_tasks());
  for (std::size_t id = 0; id < counter.done().size(); ++id) {
    EXPECT_EQ(counter.done()[id], 1u) << "task " << id;
  }
}

TEST(PerWorkerSwitch, CrashRequeueCompletesEveryTaskOnce) {
  PerWorkerSwitchOuterStrategy strategy(OuterConfig{20}, {10.0, 30.0, 60.0},
                                        3, 4.0);
  expect_crash_recovers(strategy);
}

TEST(BoundedLru, CrashRequeueCompletesEveryTaskOnce) {
  BoundedLruOuterStrategy strategy(OuterConfig{20}, 3, 3, 8);
  expect_crash_recovers(strategy);
}

TEST(PerWorkerSwitch, ThresholdsFollowSpeeds) {
  const std::vector<double> speeds{10.0, 90.0};
  PerWorkerSwitchOuterStrategy strategy(OuterConfig{100}, speeds, 1, 4.0);
  // Faster worker has a higher x_k, hence more dynamic-phase rows.
  EXPECT_GT(strategy.switch_rows(1), strategy.switch_rows(0));
  EXPECT_GT(strategy.switch_rows(0), 0u);
  EXPECT_LE(strategy.switch_rows(1), 100u);
}

TEST(PerWorkerSwitch, CompletesAllTasks) {
  const std::vector<double> speeds{15.0, 45.0, 80.0};
  PerWorkerSwitchOuterStrategy strategy(OuterConfig{30}, speeds, 2, 4.0);
  const Platform platform(speeds);
  const SimResult result = simulate(strategy, platform);
  EXPECT_EQ(result.total_tasks_done, 900u);
}

TEST(PerWorkerSwitch, EveryTaskServedOnce) {
  const std::vector<double> speeds{20.0, 60.0};
  PerWorkerSwitchOuterStrategy strategy(OuterConfig{16}, speeds, 3, 4.0);
  std::set<TaskId> seen;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::uint32_t w = 0; w < 2; ++w) {
      const auto a = strategy.on_request(w);
      if (!a.has_value()) continue;
      progress = true;
      for (const TaskId id : a->tasks) EXPECT_TRUE(seen.insert(id).second);
    }
  }
  EXPECT_EQ(seen.size(), 256u);
}

TEST(PerWorkerSwitch, VolumeComparableToGlobalSwitch) {
  // The paper's claim: speed-awareness buys little. Both variants
  // should land within ~15% of each other.
  Rng rng(derive_stream(7, "speeds"));
  const Platform platform =
      make_platform(UniformIntervalSpeeds(10.0, 100.0), 20, rng);
  const double beta = 4.4;

  PerWorkerSwitchOuterStrategy per_worker(OuterConfig{100}, platform.speeds(),
                                          11, beta);
  const SimResult a = simulate(per_worker, platform);

  DynamicOuterStrategy global(
      OuterConfig{100}, 20, 11,
      static_cast<std::uint64_t>(std::exp(-beta) * 10000.0));
  const SimResult b = simulate(global, platform);

  EXPECT_NEAR(static_cast<double>(a.total_blocks),
              static_cast<double>(b.total_blocks),
              0.15 * static_cast<double>(b.total_blocks));
}

TEST(PerWorkerSwitch, RejectsBadInputs) {
  EXPECT_THROW(PerWorkerSwitchOuterStrategy(OuterConfig{10}, {}, 1, 4.0),
               std::invalid_argument);
  EXPECT_THROW(
      PerWorkerSwitchOuterStrategy(OuterConfig{10}, {1.0, -1.0}, 1, 4.0),
      std::invalid_argument);
  EXPECT_THROW(PerWorkerSwitchOuterStrategy(OuterConfig{10}, {1.0}, 1, 0.0),
               std::invalid_argument);
}

TEST(BoundedLru, UnboundedCacheMatchesDynamicBehaviour) {
  // Capacity 2n: never evicts, so no refetches.
  BoundedLruOuterStrategy strategy(OuterConfig{20}, 3, 5, 40);
  const Platform platform({10.0, 30.0, 60.0});
  const SimResult result = simulate(strategy, platform);
  EXPECT_EQ(result.total_tasks_done, 400u);
  EXPECT_EQ(strategy.refetches(), 0u);
}

TEST(BoundedLru, TinyCacheStillCompletes) {
  BoundedLruOuterStrategy strategy(OuterConfig{16}, 2, 6, 2);
  const Platform platform({10.0, 40.0});
  const SimResult result = simulate(strategy, platform);
  EXPECT_EQ(result.total_tasks_done, 256u);
  EXPECT_GT(strategy.refetches(), 0u);
}

TEST(BoundedLru, SmallerCachesCostMoreCommunication) {
  const Platform platform({10.0, 25.0, 45.0, 80.0});
  std::uint64_t prev = 0;
  for (const std::uint32_t capacity : {80u, 24u, 8u, 2u}) {
    BoundedLruOuterStrategy strategy(OuterConfig{40}, 4, 7, capacity);
    const SimResult result = simulate(strategy, platform);
    EXPECT_EQ(result.total_tasks_done, 1600u);
    if (prev != 0) {
      EXPECT_GE(result.total_blocks, prev) << "capacity " << capacity;
    }
    prev = result.total_blocks;
  }
}

TEST(BoundedLru, EveryTaskServedOnce) {
  BoundedLruOuterStrategy strategy(OuterConfig{12}, 2, 8, 6);
  std::set<TaskId> seen;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::uint32_t w = 0; w < 2; ++w) {
      const auto a = strategy.on_request(w);
      if (!a.has_value()) continue;
      progress = true;
      for (const TaskId id : a->tasks) EXPECT_TRUE(seen.insert(id).second);
    }
  }
  EXPECT_EQ(seen.size(), 144u);
}

TEST(BoundedLru, RefetchCountsOnlyEvictedBlocks) {
  // First pass over distinct blocks is never a refetch.
  BoundedLruOuterStrategy strategy(OuterConfig{8}, 1, 9, 16);
  while (strategy.on_request(0).has_value()) {
  }
  EXPECT_EQ(strategy.refetches(), 0u);
}

TEST(BoundedLru, RejectsBadInputs) {
  EXPECT_THROW(BoundedLruOuterStrategy(OuterConfig{8}, 0, 1, 4),
               std::invalid_argument);
  EXPECT_THROW(BoundedLruOuterStrategy(OuterConfig{8}, 1, 1, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace hetsched
