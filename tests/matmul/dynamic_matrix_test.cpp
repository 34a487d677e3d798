#include "matmul/dynamic_matrix.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "matmul/matmul_factory.hpp"
#include "sim/trace.hpp"

namespace hetsched {
namespace {

TEST(DynamicMatrix, FirstRequestShipsThreeBlocksOneTask) {
  DynamicMatrixStrategy strategy(MatmulConfig{6}, 1, 1);
  const auto a = strategy.on_request(0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->blocks.size(), 3u);  // A, B, C corner blocks
  EXPECT_EQ(a->tasks.size(), 1u);
  EXPECT_EQ(strategy.known_extent(0), 1u);
}

TEST(DynamicMatrix, KthRequestShips3Times2kMinus1Blocks) {
  // Single worker: extending y-1 -> y ships 3 * (2(y-1) + 1) blocks and
  // enables 3(y-1)^2 + 3(y-1) + 1 tasks.
  DynamicMatrixStrategy strategy(MatmulConfig{8}, 1, 2);
  for (std::uint32_t y = 1; y <= 8; ++y) {
    const auto a = strategy.on_request(0);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->blocks.size(), 3u * (2 * (y - 1) + 1));
    EXPECT_EQ(a->tasks.size(), 3u * (y - 1) * (y - 1) + 3 * (y - 1) + 1);
  }
  EXPECT_EQ(strategy.unassigned_tasks(), 0u);
  EXPECT_FALSE(strategy.on_request(0).has_value());
}

TEST(DynamicMatrix, BlockOperandsSplitEvenly) {
  DynamicMatrixStrategy strategy(MatmulConfig{10}, 1, 3);
  for (int step = 0; step < 5; ++step) {
    const auto a = strategy.on_request(0);
    ASSERT_TRUE(a.has_value());
    std::size_t na = 0, nb = 0, nc = 0;
    for (const auto& ref : a->blocks) {
      switch (ref.operand) {
        case Operand::kMatA: ++na; break;
        case Operand::kMatB: ++nb; break;
        case Operand::kMatC: ++nc; break;
        default: FAIL() << "vector operand from matmul strategy";
      }
    }
    EXPECT_EQ(na, nb);
    EXPECT_EQ(nb, nc);
  }
}

TEST(DynamicMatrix, EveryTaskMarkedExactlyOnceAcrossWorkers) {
  DynamicMatrixStrategy strategy(MatmulConfig{6}, 3, 4);
  std::set<TaskId> seen;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::uint32_t w = 0; w < 3; ++w) {
      const auto a = strategy.on_request(w);
      if (!a.has_value()) continue;
      progress = true;
      for (const TaskId id : a->tasks) {
        EXPECT_TRUE(seen.insert(id).second) << "task assigned twice";
      }
    }
  }
  EXPECT_EQ(seen.size(), 216u);
}

TEST(DynamicMatrix, TasksLieInsideKnownCube) {
  DynamicMatrixStrategy strategy(MatmulConfig{7}, 1, 5);
  std::set<std::uint32_t> is, js, ks;
  while (auto a = strategy.on_request(0)) {
    for (const auto& ref : a->blocks) {
      switch (ref.operand) {
        case Operand::kMatA: is.insert(ref.row); ks.insert(ref.col); break;
        case Operand::kMatB: ks.insert(ref.row); js.insert(ref.col); break;
        case Operand::kMatC: is.insert(ref.row); js.insert(ref.col); break;
        default: break;
      }
    }
    for (const TaskId id : a->tasks) {
      const auto [i, j, k] = matmul_task_coords(7, id);
      EXPECT_TRUE(is.count(i));
      EXPECT_TRUE(js.count(j));
      EXPECT_TRUE(ks.count(k));
    }
  }
}

TEST(DynamicMatrix2Phases, SwitchesAtThreshold) {
  // n = 8 (512 tasks): a lone phase-1 worker marks 1+7+19+37+61+91 = 216
  // tasks after six extensions, leaving 296 <= 300 for phase 2 — the
  // threshold is crossed while the pool is provably non-empty.
  const std::uint64_t threshold = 300;
  DynamicMatrixStrategy strategy(MatmulConfig{8}, 2, 6, threshold);
  while (strategy.unassigned_tasks() > threshold) {
    ASSERT_TRUE(strategy.on_request(0).has_value());
  }
  std::uint64_t phase2 = 0;
  while (auto a = strategy.on_request(1)) {
    EXPECT_EQ(a->tasks.size(), 1u);
    EXPECT_LE(a->blocks.size(), 3u);
    ++phase2;
  }
  EXPECT_EQ(phase2, strategy.phase2_tasks_served());
  EXPECT_GT(phase2, 0u);
  EXPECT_LE(phase2, threshold);
}

TEST(DynamicMatrix2Phases, FullPhase2DegeneratesToRandom) {
  // Threshold > total tasks: phase 1 never runs (the switch rule is
  // strict, so threshold == total would still serve the first request
  // data-aware — see SwitchBoundaryIsStrict).
  DynamicMatrixStrategy strategy(MatmulConfig{4}, 1, 7, 65);
  std::set<TaskId> seen;
  while (auto a = strategy.on_request(0)) {
    ASSERT_EQ(a->tasks.size(), 1u);
    seen.insert(a->tasks[0]);
  }
  EXPECT_EQ(seen.size(), 64u);
  EXPECT_EQ(strategy.phase2_tasks_served(), 64u);
}

TEST(DynamicMatrix2Phases, SwitchBoundaryIsStrict) {
  // n = 8, single worker: request r allocates r^3 - (r-1)^3 tasks, so
  // after 3 requests exactly 512 - 27 = 485 remain. With
  // phase2_tasks = 485 request 4 arrives at the documented boundary
  // ("once *fewer than* 485 remain") and must still be data-aware:
  // 4^3 - 3^3 = 37 tasks in one batch, not 1.
  DynamicMatrixStrategy strategy(MatmulConfig{8}, 1, 7, 485);
  for (int r = 0; r < 3; ++r) {
    ASSERT_TRUE(strategy.on_request(0).has_value());
  }
  ASSERT_EQ(strategy.unassigned_tasks(), 485u);
  EXPECT_EQ(strategy.current_phase(), 1);
  const auto boundary = strategy.on_request(0);
  ASSERT_TRUE(boundary.has_value());
  EXPECT_EQ(boundary->tasks.size(), 37u);
  EXPECT_EQ(strategy.phase2_tasks_served(), 0u);
  EXPECT_EQ(strategy.current_phase(), 2);
  const auto after = strategy.on_request(0);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->tasks.size(), 1u);
  EXPECT_EQ(strategy.phase2_tasks_served(), 1u);
}

TEST(MakeDynamicMatrix2Phases, RejectsBadFraction) {
  EXPECT_THROW(make_dynamic_matrix_2phases(MatmulConfig{4}, 1, 1, -0.1),
               std::invalid_argument);
  EXPECT_THROW(make_dynamic_matrix_2phases(MatmulConfig{4}, 1, 1, 2.0),
               std::invalid_argument);
}

TEST(MatmulFactory, BuildsEveryKnownStrategy) {
  for (const auto& name : matmul_strategy_names()) {
    MatmulStrategyOptions options;
    options.phase2_fraction = 0.05;
    const auto strategy =
        make_matmul_strategy(name, MatmulConfig{5}, 2, 1, options);
    ASSERT_NE(strategy, nullptr);
    EXPECT_EQ(strategy->name(), name);
    EXPECT_EQ(strategy->total_tasks(), 125u);
  }
}

TEST(MatmulFactory, RejectsUnknownName) {
  EXPECT_THROW(make_matmul_strategy("Nope", MatmulConfig{5}, 2, 1),
               std::invalid_argument);
}

TEST(DynamicMatrix, NamesDistinguishVariants) {
  DynamicMatrixStrategy pure(MatmulConfig{4}, 1, 1);
  DynamicMatrixStrategy two(MatmulConfig{4}, 1, 1, 10);
  EXPECT_EQ(pure.name(), "DynamicMatrix");
  EXPECT_EQ(two.name(), "DynamicMatrix2Phases");
}

TEST(DynamicMatrix, RejectsZeroWorkers) {
  EXPECT_THROW(DynamicMatrixStrategy(MatmulConfig{4}, 0, 1),
               std::invalid_argument);
}

// Single worker drains phase 1 completely, then crash-requeued tasks
// force the random fallback: those serves are fallback work, never
// phase-2 work, and the regime change is announced exactly once.
TEST(DynamicMatrix, RequeueFallbackCountsSeparatelyFromPhase2) {
  DynamicMatrixStrategy strategy(MatmulConfig{3}, 1, 5);
  RecordingTrace trace;
  double clock = 0.0;
  strategy.attach_observer(&trace, &clock);

  std::vector<TaskId> assigned;
  while (auto a = strategy.on_request(0)) {
    assigned.insert(assigned.end(), a->tasks.begin(), a->tasks.end());
  }
  ASSERT_EQ(assigned.size(), 27u);  // phase 1 alone drains the pool
  EXPECT_EQ(strategy.phase2_tasks_served(), 0u);
  EXPECT_EQ(strategy.fallback_tasks_served(), 0u);
  EXPECT_TRUE(trace.fallbacks().empty());

  const std::vector<TaskId> requeued(assigned.begin(), assigned.begin() + 4);
  ASSERT_TRUE(strategy.requeue(requeued));
  clock = 1.25;
  std::uint64_t served = 0;
  while (auto a = strategy.on_request(0)) {
    ASSERT_EQ(a->tasks.size(), 1u);
    ASSERT_TRUE(a->blocks.empty());  // the worker already owns all blocks
    ++served;
  }
  EXPECT_EQ(served, 4u);
  EXPECT_EQ(strategy.fallback_tasks_served(), 4u);
  EXPECT_EQ(strategy.phase2_tasks_served(), 0u);  // regression: was phase2
  ASSERT_EQ(trace.fallbacks().size(), 1u);
  EXPECT_EQ(trace.fallbacks()[0].time, 1.25);
  EXPECT_EQ(trace.fallbacks()[0].tasks_remaining, 4u);
  EXPECT_TRUE(trace.phase_switches().empty());
}

// The only path on which a data-aware request finds blocks the worker
// already owns: a random phase-2 serve, then a requeue that lifts the
// pool back over the threshold. The next data-aware request must ship
// exactly the extension blocks the worker lacks, each once, and still
// take every pooled task the extension enables.
TEST(DynamicMatrix2Phases, RequeueReentryShipsOnlyUnownedExtensionBlocks) {
  const std::uint32_t n = 8;
  const std::uint64_t threshold = 200;
  DynamicMatrixStrategy strategy(MatmulConfig{n}, 2, 3, threshold);
  std::set<TaskId> pooled;
  for (TaskId id = 0; id < TaskId{n} * n * n; ++id) pooled.insert(id);
  std::vector<TaskId> handed_out;
  // Worker 0's owned blocks (shadow) and its index sets I, J, K.
  std::set<std::uint64_t> owned;
  std::set<std::uint32_t> known_i, known_j, known_k;
  const auto key = [n](const BlockRef& b) {
    return (static_cast<std::uint64_t>(b.operand) * n + b.row) * n + b.col;
  };
  const auto serve = [&](std::uint32_t w) {
    auto a = strategy.on_request(w);
    if (!a.has_value()) {
      ADD_FAILURE() << "worker " << w << " was retired";
      return Assignment{};
    }
    for (const TaskId t : a->tasks) {
      EXPECT_EQ(pooled.erase(t), 1u);
      handed_out.push_back(t);
    }
    return *a;
  };

  // 1. Drain to phase 2, round-robin. Worker 0 is served data-aware
  // only, so its A blocks span (I + i) x (K + k) and its B blocks
  // (K + k) x (J + j): the index sets follow from what it was shipped.
  std::uint32_t w = 0;
  while (strategy.current_phase() == 1) {
    const Assignment a = serve(w);
    if (w == 0) {
      for (const BlockRef& b : a.blocks) {
        EXPECT_TRUE(owned.insert(key(b)).second);
        if (b.operand == Operand::kMatA) {
          known_i.insert(b.row);
          known_k.insert(b.col);
        } else if (b.operand == Operand::kMatB) {
          known_j.insert(b.col);
        }
      }
    }
    w ^= 1;
  }
  const std::uint32_t y = strategy.known_extent(0);
  ASSERT_EQ(known_i.size(), y);
  ASSERT_EQ(known_j.size(), y);
  ASSERT_EQ(known_k.size(), y);

  // 2. One random task for worker 0, with its missing blocks.
  const Assignment random = serve(0);
  ASSERT_EQ(random.tasks.size(), 1u);
  ASSERT_EQ(strategy.phase2_tasks_served(), 1u);
  for (const BlockRef& b : random.blocks) {
    EXPECT_TRUE(owned.insert(key(b)).second);
  }

  // 3. Requeue handed-out tasks until the pool is back at the threshold.
  std::vector<TaskId> requeued;
  while (pooled.size() < threshold) {
    requeued.push_back(handed_out[requeued.size()]);
    pooled.insert(requeued.back());
  }
  ASSERT_TRUE(strategy.requeue(requeued));
  ASSERT_EQ(strategy.unassigned_tasks(), pooled.size());
  ASSERT_EQ(strategy.current_phase(), 1);

  // 4. Data-aware re-entry. With y = n - 1 the fresh indices are the
  // single unknown ones.
  ASSERT_EQ(y, n - 1);
  const auto fresh = [](const std::set<std::uint32_t>& known) {
    std::uint32_t v = 0;
    while (known.count(v) != 0) ++v;
    return v;
  };
  const std::uint32_t i = fresh(known_i);
  const std::uint32_t j = fresh(known_j);
  const std::uint32_t k = fresh(known_k);
  std::set<std::uint32_t> all_i = known_i, all_j = known_j, all_k = known_k;
  all_i.insert(i);
  all_j.insert(j);
  all_k.insert(k);
  std::set<std::uint64_t> expected_blocks;
  std::uint32_t extension = 0;
  const auto extend = [&](Operand op, std::uint32_t r, std::uint32_t c) {
    ++extension;
    const std::uint64_t id = key(BlockRef{op, r, c});
    if (owned.count(id) == 0) expected_blocks.insert(id);
  };
  for (const std::uint32_t k2 : all_k) extend(Operand::kMatA, i, k2);
  for (const std::uint32_t i2 : known_i) extend(Operand::kMatA, i2, k);
  for (const std::uint32_t j2 : all_j) extend(Operand::kMatB, k, j2);
  for (const std::uint32_t k2 : known_k) extend(Operand::kMatB, k2, j);
  for (const std::uint32_t j2 : all_j) extend(Operand::kMatC, i, j2);
  for (const std::uint32_t i2 : known_i) extend(Operand::kMatC, i2, j);
  ASSERT_EQ(extension, 3 * (2 * y + 1));
  std::set<TaskId> expected_tasks;
  for (const std::uint32_t ti : all_i) {
    for (const std::uint32_t tj : all_j) {
      for (const std::uint32_t tk : all_k) {
        const TaskId id = matmul_task_id(n, ti, tj, tk);
        if ((ti == i || tj == j || tk == k) && pooled.count(id) != 0) {
          expected_tasks.insert(id);
        }
      }
    }
  }

  const Assignment reentry = serve(0);
  EXPECT_EQ(strategy.phase2_tasks_served(), 1u);
  EXPECT_EQ(strategy.fallback_tasks_served(), 0u);
  EXPECT_EQ(strategy.known_extent(0), n);
  std::set<std::uint64_t> shipped;
  for (const BlockRef& b : reentry.blocks) {
    EXPECT_TRUE(shipped.insert(key(b)).second) << "block shipped twice";
  }
  EXPECT_EQ(shipped, expected_blocks);
  EXPECT_LT(shipped.size(), extension);  // set_if_clear refused some
  EXPECT_EQ(std::set<TaskId>(reentry.tasks.begin(), reentry.tasks.end()),
            expected_tasks);
  EXPECT_EQ(reentry.tasks.size(), expected_tasks.size());
}

TEST(DynamicMatrix2Phases, PhaseSwitchAnnouncedOncePerRep) {
  DynamicMatrixStrategy strategy(MatmulConfig{8}, 1, 7, 485);
  RecordingTrace trace;
  double clock = 4.0;
  strategy.attach_observer(&trace, &clock);
  while (strategy.on_request(0).has_value()) {
  }
  ASSERT_EQ(trace.phase_switches().size(), 1u);
  EXPECT_EQ(trace.phase_switches()[0].time, 4.0);
  EXPECT_EQ(trace.phase_switches()[0].tasks_remaining, 448u);
  EXPECT_TRUE(trace.fallbacks().empty());

  ASSERT_TRUE(strategy.reset(7));
  while (strategy.on_request(0).has_value()) {
  }
  EXPECT_EQ(trace.phase_switches().size(), 2u);
}

}  // namespace
}  // namespace hetsched
