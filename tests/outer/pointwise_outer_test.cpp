#include <gtest/gtest.h>

#include <set>

#include "outer/pointwise_outer.hpp"

namespace hetsched {
namespace {

using Order = PointwiseOuterStrategy::Order;

TEST(SortedOuter, ServesTasksInLexicographicOrder) {
  PointwiseOuterStrategy strategy(OuterConfig{4}, 1, 0, Order::kSorted);
  for (TaskId expect = 0; expect < 16; ++expect) {
    const auto a = strategy.on_request(0);
    ASSERT_TRUE(a.has_value());
    ASSERT_EQ(a->tasks.size(), 1u);
    EXPECT_EQ(a->tasks[0], expect);
  }
  EXPECT_FALSE(strategy.on_request(0).has_value());
}

TEST(SortedOuter, ChargesRowBlockOncePerRow) {
  // Lexicographic service by one worker: first task of each row ships
  // a_i; b_j ships only during the first row.
  const std::uint32_t n = 5;
  PointwiseOuterStrategy strategy(OuterConfig{n}, 1, 0, Order::kSorted);
  std::uint64_t blocks = 0;
  while (auto a = strategy.on_request(0)) blocks += a->blocks.size();
  EXPECT_EQ(blocks, 2u * n);  // n a-blocks + n b-blocks total
}

TEST(SortedOuter, SeparateWorkersHaveSeparateCaches) {
  const std::uint32_t n = 3;
  PointwiseOuterStrategy strategy(OuterConfig{n}, 2, 0, Order::kSorted);
  // Alternate requests: both workers replicate blocks independently.
  std::uint64_t blocks = 0;
  std::uint64_t tasks = 0;
  bool flip = false;
  for (;;) {
    const auto a = strategy.on_request(flip ? 1 : 0);
    flip = !flip;
    if (!a.has_value()) break;
    blocks += a->blocks.size();
    tasks += a->tasks.size();
  }
  EXPECT_EQ(tasks, 9u);
  // With strict alternation each worker sees every other task and needs
  // most blocks itself: strictly more than the single-worker optimum.
  EXPECT_GT(blocks, 2u * n);
}

TEST(RandomOuter, ServesEveryTaskExactlyOnce) {
  PointwiseOuterStrategy strategy(OuterConfig{8}, 1, 99, Order::kRandom);
  std::set<TaskId> seen;
  while (auto a = strategy.on_request(0)) {
    ASSERT_EQ(a->tasks.size(), 1u);
    EXPECT_TRUE(seen.insert(a->tasks[0]).second);
  }
  EXPECT_EQ(seen.size(), 64u);
}

TEST(RandomOuter, NeverShipsABlockTwiceToTheSameWorker) {
  PointwiseOuterStrategy strategy(OuterConfig{10}, 1, 7, Order::kRandom);
  std::set<std::pair<int, std::uint32_t>> shipped;
  while (auto a = strategy.on_request(0)) {
    for (const auto& ref : a->blocks) {
      EXPECT_TRUE(
          shipped.insert({static_cast<int>(ref.operand), ref.row}).second)
          << "block re-shipped";
    }
  }
  EXPECT_EQ(shipped.size(), 20u);  // eventually owns all 2n blocks
}

TEST(RandomOuter, FirstTaskShipsTwoBlocks) {
  PointwiseOuterStrategy strategy(OuterConfig{10}, 1, 11, Order::kRandom);
  const auto a = strategy.on_request(0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->blocks.size(), 2u);
}

TEST(RandomOuter, SequenceDependsOnSeed) {
  PointwiseOuterStrategy a(OuterConfig{16}, 1, 1, Order::kRandom);
  PointwiseOuterStrategy b(OuterConfig{16}, 1, 2, Order::kRandom);
  int differing = 0;
  for (int step = 0; step < 32; ++step) {
    const auto ta = a.on_request(0);
    const auto tb = b.on_request(0);
    ASSERT_TRUE(ta.has_value() && tb.has_value());
    if (ta->tasks[0] != tb->tasks[0]) ++differing;
  }
  EXPECT_GT(differing, 10);
}

TEST(RandomOuter, SameSeedSameSequence) {
  PointwiseOuterStrategy a(OuterConfig{16}, 1, 5, Order::kRandom);
  PointwiseOuterStrategy b(OuterConfig{16}, 1, 5, Order::kRandom);
  for (int step = 0; step < 64; ++step) {
    const auto ta = a.on_request(0);
    const auto tb = b.on_request(0);
    ASSERT_TRUE(ta.has_value() && tb.has_value());
    EXPECT_EQ(ta->tasks[0], tb->tasks[0]);
  }
}

TEST(PointwiseOuter, UnassignedCountDecreases) {
  PointwiseOuterStrategy strategy(OuterConfig{4}, 1, 3, Order::kRandom);
  EXPECT_EQ(strategy.unassigned_tasks(), 16u);
  strategy.on_request(0);
  EXPECT_EQ(strategy.unassigned_tasks(), 15u);
  EXPECT_EQ(strategy.total_tasks(), 16u);
}

TEST(PointwiseOuter, ReportsWorkerCount) {
  PointwiseOuterStrategy strategy(OuterConfig{4}, 7, 3, Order::kRandom);
  EXPECT_EQ(strategy.workers(), 7u);
}

}  // namespace
}  // namespace hetsched
