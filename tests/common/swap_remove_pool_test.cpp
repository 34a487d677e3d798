#include "common/swap_remove_pool.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

namespace hetsched {
namespace {

TEST(SwapRemovePool, StartsFull) {
  SwapRemovePool pool(10);
  EXPECT_EQ(pool.size(), 10u);
  EXPECT_FALSE(pool.empty());
  for (std::uint64_t id = 0; id < 10; ++id) EXPECT_TRUE(pool.contains(id));
}

TEST(SwapRemovePool, EmptyPool) {
  SwapRemovePool pool(0);
  EXPECT_TRUE(pool.empty());
  EXPECT_FALSE(pool.contains(0));
}

TEST(SwapRemovePool, RemoveRemoves) {
  SwapRemovePool pool(5);
  EXPECT_TRUE(pool.remove(3));
  EXPECT_FALSE(pool.contains(3));
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_FALSE(pool.remove(3));  // second removal is a no-op
  EXPECT_EQ(pool.size(), 4u);
}

TEST(SwapRemovePool, RemoveOutOfRangeIsFalse) {
  SwapRemovePool pool(5);
  EXPECT_FALSE(pool.remove(99));
}

TEST(SwapRemovePool, PopRandomDrainsExactlyOnce) {
  SwapRemovePool pool(100);
  Rng rng(1);
  std::set<std::uint64_t> seen;
  while (!pool.empty()) {
    const std::uint64_t id = pool.pop_random(rng);
    EXPECT_LT(id, 100u);
    EXPECT_TRUE(seen.insert(id).second) << "id " << id << " popped twice";
  }
  EXPECT_EQ(seen.size(), 100u);
}

TEST(SwapRemovePool, PopRandomIsRoughlyUniformOnFirstDraw) {
  // Distribution check: the first pop from a 4-element pool should hit
  // each element about a quarter of the time across seeds.
  std::vector<int> counts(4, 0);
  for (std::uint64_t seed = 0; seed < 4000; ++seed) {
    SwapRemovePool pool(4);
    Rng rng(seed);
    ++counts[pool.pop_random(rng)];
  }
  for (const int c : counts) EXPECT_NEAR(c, 1000, 150);
}

TEST(SwapRemovePool, PopFirstIsLexicographic) {
  SwapRemovePool pool(5);
  for (std::uint64_t expect = 0; expect < 5; ++expect) {
    EXPECT_EQ(pool.pop_first(), expect);
  }
  EXPECT_TRUE(pool.empty());
}

TEST(SwapRemovePool, PopFirstSkipsRemoved) {
  SwapRemovePool pool(6);
  pool.remove(0);
  pool.remove(2);
  EXPECT_EQ(pool.pop_first(), 1u);
  EXPECT_EQ(pool.pop_first(), 3u);
  pool.remove(4);
  EXPECT_EQ(pool.pop_first(), 5u);
  EXPECT_TRUE(pool.empty());
}

TEST(SwapRemovePool, MixedOperationsKeepInvariant) {
  SwapRemovePool pool(50);
  Rng rng(7);
  std::set<std::uint64_t> gone;
  for (int step = 0; step < 40; ++step) {
    if (step % 3 == 0) {
      const std::uint64_t id = step;
      if (pool.remove(id)) gone.insert(id);
    } else {
      const std::uint64_t id = pool.pop_random(rng);
      EXPECT_TRUE(gone.insert(id).second);
    }
    EXPECT_EQ(pool.size() + gone.size(), 50u);
    for (const std::uint64_t id : gone) EXPECT_FALSE(pool.contains(id));
  }
}

TEST(SwapRemovePool, PopOnEmptyPoolThrows) {
  SwapRemovePool pool(0);
  Rng rng(1);
  EXPECT_THROW(pool.pop_first(), std::logic_error);
  EXPECT_THROW(pool.pop_random(rng), std::logic_error);
}

TEST(SwapRemovePool, PopAfterDrainThrowsAndRecoversOnInsert) {
  SwapRemovePool pool(3);
  while (!pool.empty()) pool.pop_first();
  Rng rng(2);
  EXPECT_THROW(pool.pop_first(), std::logic_error);
  EXPECT_THROW(pool.pop_random(rng), std::logic_error);
  // A requeue after the drain brings the pool back to life.
  EXPECT_TRUE(pool.insert(1));
  EXPECT_EQ(pool.pop_first(), 1u);
  EXPECT_THROW(pool.pop_first(), std::logic_error);
}

TEST(SwapRemovePool, IdsViewMatchesSize) {
  SwapRemovePool pool(8);
  pool.remove(1);
  pool.remove(5);
  EXPECT_EQ(pool.ids().size(), pool.size());
  for (const std::uint64_t id : pool.ids()) EXPECT_TRUE(pool.contains(id));
}

TEST(SwapRemovePool, CapacityAboveUint32BoundaryThrows) {
  // Positions/ids are uint32 with ~0u as the absent marker, so any
  // capacity past kMaxCapacity would silently corrupt the index. The
  // constructor must refuse it loudly (TaskPool is the supported path).
  EXPECT_THROW(SwapRemovePool(SwapRemovePool::kMaxCapacity + 1),
               std::length_error);
  EXPECT_THROW(SwapRemovePool(std::uint64_t{1} << 32), std::length_error);
  EXPECT_THROW(SwapRemovePool((std::uint64_t{1} << 40) + 17),
               std::length_error);
  EXPECT_EQ(SwapRemovePool::kMaxCapacity, 0xFFFFFFFEull);
}

TEST(SwapRemovePool, ResetRefillsToIdentity) {
  SwapRemovePool pool(6);
  Rng rng(9);
  pool.pop_random(rng);
  pool.pop_first();
  pool.remove(4);
  pool.reset();
  EXPECT_EQ(pool.size(), 6u);
  for (std::uint64_t id = 0; id < 6; ++id) EXPECT_TRUE(pool.contains(id));
  for (std::uint64_t id = 0; id < 6; ++id) EXPECT_EQ(pool.pop_first(), id);
}

TEST(SwapRemovePool, ResetPoolMatchesFreshPoolBitForBit) {
  // The reuse contract: after reset(), the pool must consume an RNG
  // stream and produce ids exactly like a newly constructed pool.
  SwapRemovePool reused(64);
  Rng warm(5);
  for (int i = 0; i < 40; ++i) reused.pop_random(warm);
  reused.insert(7);
  reused.reset();

  SwapRemovePool fresh(64);
  Rng rng_a(321), rng_b(321);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(reused.pop_random(rng_a), fresh.pop_random(rng_b)) << i;
  }
}

TEST(SwapRemovePool, UnindexedPopsMatchIndexedPopsExactly) {
  // pop_random_unindexed must consume the RNG identically and return
  // the identical id sequence; the deferred index must self-heal on
  // the first indexed operation so contains/insert/pop_first behave
  // as if every pop had been indexed (the crash-requeue path).
  SwapRemovePool indexed(97), lazy(97);
  Rng rng_a(11), rng_b(11);
  for (int i = 0; i < 60; ++i) {
    ASSERT_EQ(indexed.pop_random(rng_a), lazy.pop_random_unindexed(rng_b))
        << i;
  }
  // Index self-heal: membership agrees for every id.
  for (std::uint64_t id = 0; id < 97; ++id) {
    ASSERT_EQ(indexed.contains(id), lazy.contains(id)) << id;
  }
  // Requeue + further mixed use stays in lockstep.
  for (std::uint64_t id = 0; id < 97; ++id) {
    if (!indexed.contains(id)) {
      ASSERT_TRUE(indexed.insert(id));
      ASSERT_TRUE(lazy.insert(id));
      break;
    }
  }
  ASSERT_EQ(indexed.size(), lazy.size());
  while (!indexed.empty()) {
    ASSERT_EQ(indexed.pop_first(), lazy.pop_first());
    if (indexed.empty()) break;
    ASSERT_EQ(indexed.pop_random(rng_a), lazy.pop_random_unindexed(rng_b));
  }
  EXPECT_TRUE(lazy.empty());
}

TEST(SwapRemovePool, CopyDrainsIndependentlyOfOriginal) {
  // Ids and positions share one block, addressed by offset, so a copy
  // owns its own index and a move carries it over intact.
  SwapRemovePool original(50);
  original.remove(3);
  SwapRemovePool copy = original;
  Rng rng_a(8), rng_b(8);
  std::set<std::uint64_t> from_copy;
  while (!copy.empty()) from_copy.insert(copy.pop_random(rng_a));
  EXPECT_EQ(from_copy.size(), 49u);
  EXPECT_EQ(from_copy.count(3), 0u);
  EXPECT_EQ(original.size(), 49u);
  for (std::uint64_t id = 0; id < 50; ++id) {
    EXPECT_EQ(original.contains(id), id != 3) << id;
  }
  // The copy's drain left the original untouched: moved out, it pops
  // the same set under the same seed.
  SwapRemovePool moved = std::move(original);
  std::set<std::uint64_t> from_moved;
  while (!moved.empty()) from_moved.insert(moved.pop_random(rng_b));
  EXPECT_EQ(from_moved, from_copy);
}

TEST(SwapRemovePool, ManyResetCyclesStayConsistent) {
  SwapRemovePool pool(16);
  for (int cycle = 0; cycle < 100; ++cycle) {
    Rng rng(static_cast<std::uint64_t>(cycle));
    std::set<std::uint64_t> seen;
    while (!pool.empty()) seen.insert(pool.pop_random(rng));
    EXPECT_EQ(seen.size(), 16u);
    pool.reset();
  }
  EXPECT_EQ(pool.size(), 16u);
}

}  // namespace
}  // namespace hetsched
