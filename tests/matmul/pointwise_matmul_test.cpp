#include <gtest/gtest.h>

#include <set>

#include "matmul/pointwise_matmul.hpp"

namespace hetsched {
namespace {

using Order = PointwiseMatmulStrategy::Order;

TEST(SortedMatrix, ServesTasksInLexicographicOrder) {
  PointwiseMatmulStrategy strategy(MatmulConfig{3}, 1, 0, Order::kSorted);
  for (TaskId expect = 0; expect < 27; ++expect) {
    const auto a = strategy.on_request(0);
    ASSERT_TRUE(a.has_value());
    ASSERT_EQ(a->tasks.size(), 1u);
    EXPECT_EQ(a->tasks[0], expect);
  }
  EXPECT_FALSE(strategy.on_request(0).has_value());
}

TEST(SortedMatrix, FirstTaskShipsThreeBlocks) {
  PointwiseMatmulStrategy strategy(MatmulConfig{4}, 1, 0, Order::kSorted);
  const auto a = strategy.on_request(0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->blocks.size(), 3u);
}

TEST(SortedMatrix, SecondTaskOfSameRowReusesAandC) {
  PointwiseMatmulStrategy strategy(MatmulConfig{4}, 1, 0, Order::kSorted);
  strategy.on_request(0);  // (0,0,0): ships A00, B00, C00
  const auto a = strategy.on_request(0);  // (0,0,1): ships A01, B10 only
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->blocks.size(), 2u);
  for (const auto& ref : a->blocks) {
    EXPECT_NE(ref.operand, Operand::kMatC);
  }
}

TEST(RandomMatrix, ServesEveryTaskExactlyOnce) {
  PointwiseMatmulStrategy strategy(MatmulConfig{5}, 1, 17, Order::kRandom);
  std::set<TaskId> seen;
  while (auto a = strategy.on_request(0)) {
    ASSERT_EQ(a->tasks.size(), 1u);
    EXPECT_TRUE(seen.insert(a->tasks[0]).second);
  }
  EXPECT_EQ(seen.size(), 125u);
}

TEST(RandomMatrix, NeverShipsSameBlockTwice) {
  PointwiseMatmulStrategy strategy(MatmulConfig{6}, 1, 23, Order::kRandom);
  std::set<std::tuple<int, std::uint32_t, std::uint32_t>> shipped;
  while (auto a = strategy.on_request(0)) {
    for (const auto& ref : a->blocks) {
      EXPECT_TRUE(shipped
                      .insert({static_cast<int>(ref.operand), ref.row,
                               ref.col})
                      .second);
    }
  }
  // A single worker eventually owns all 3 n^2 blocks.
  EXPECT_EQ(shipped.size(), 3u * 36u);
}

TEST(RandomMatrix, AtMostThreeBlocksPerTask) {
  PointwiseMatmulStrategy strategy(MatmulConfig{6}, 2, 29, Order::kRandom);
  for (int step = 0; step < 100; ++step) {
    const auto a = strategy.on_request(step % 2);
    if (!a.has_value()) break;
    EXPECT_LE(a->blocks.size(), 3u);
  }
}

TEST(RandomMatrix, SameSeedSameSequence) {
  PointwiseMatmulStrategy a(MatmulConfig{5}, 1, 5, Order::kRandom);
  PointwiseMatmulStrategy b(MatmulConfig{5}, 1, 5, Order::kRandom);
  for (int step = 0; step < 50; ++step) {
    const auto ta = a.on_request(0);
    const auto tb = b.on_request(0);
    ASSERT_TRUE(ta.has_value() && tb.has_value());
    EXPECT_EQ(ta->tasks[0], tb->tasks[0]);
  }
}

TEST(PointwiseMatmul, CountsAreConsistent) {
  PointwiseMatmulStrategy strategy(MatmulConfig{4}, 3, 31, Order::kRandom);
  EXPECT_EQ(strategy.total_tasks(), 64u);
  EXPECT_EQ(strategy.unassigned_tasks(), 64u);
  EXPECT_EQ(strategy.workers(), 3u);
  strategy.on_request(1);
  EXPECT_EQ(strategy.unassigned_tasks(), 63u);
}

TEST(ChargeMatmulTaskBlocks, ChargesOnlyMissing) {
  MatmulWorkerBlocks blocks(4);
  Assignment first;
  charge_matmul_task_blocks(4, 1, 2, 3, blocks, first);
  EXPECT_EQ(first.blocks.size(), 3u);
  Assignment second;
  charge_matmul_task_blocks(4, 1, 2, 3, blocks, second);
  EXPECT_TRUE(second.blocks.empty());
  // Shares C_{1,2} but needs fresh A and B.
  Assignment third;
  charge_matmul_task_blocks(4, 1, 2, 0, blocks, third);
  EXPECT_EQ(third.blocks.size(), 2u);
}

}  // namespace
}  // namespace hetsched
