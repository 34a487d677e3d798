#include "common/task_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"

namespace hetsched {
namespace {

// ---------------------------------------------------------------- Compact

TEST(CompactTaskPool, StartsFullAndDrainsInOrder) {
  CompactTaskPool pool(17);
  EXPECT_EQ(pool.size(), 17u);
  EXPECT_EQ(pool.capacity_ids(), 17u);
  for (std::uint64_t i = 0; i < 17; ++i) {
    EXPECT_TRUE(pool.contains(i));
    EXPECT_EQ(pool.pop_first(), i);
  }
  EXPECT_TRUE(pool.empty());
  EXPECT_THROW(pool.pop_first(), std::logic_error);
}

TEST(CompactTaskPool, RemoveAndContains) {
  CompactTaskPool pool(10);
  EXPECT_TRUE(pool.remove(4));
  EXPECT_FALSE(pool.remove(4));  // already gone
  EXPECT_FALSE(pool.contains(4));
  EXPECT_FALSE(pool.contains(10));  // beyond capacity
  EXPECT_EQ(pool.size(), 9u);
  EXPECT_EQ(pool.pop_first(), 0u);
  pool.remove(1);
  pool.remove(2);
  EXPECT_EQ(pool.pop_first(), 3u);  // skips the removed run
  EXPECT_EQ(pool.pop_first(), 5u);  // and the hole at 4
}

TEST(CompactTaskPool, InsertRewindsPopFirst) {
  CompactTaskPool pool(10);
  for (int i = 0; i < 5; ++i) pool.pop_first();  // cursor now at 5
  EXPECT_TRUE(pool.insert(2));
  EXPECT_FALSE(pool.insert(2));  // already present
  EXPECT_THROW(pool.insert(10), std::out_of_range);
  EXPECT_EQ(pool.pop_first(), 2u);  // rewound past the cursor
  EXPECT_EQ(pool.pop_first(), 5u);
}

TEST(CompactTaskPool, PopRandomDrainsEveryIdExactlyOnce) {
  CompactTaskPool pool(257);
  Rng rng(123);
  std::set<std::uint64_t> seen;
  while (!pool.empty()) {
    const std::uint64_t id = pool.pop_random(rng);
    EXPECT_LT(id, 257u);
    EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
  }
  EXPECT_EQ(seen.size(), 257u);
  EXPECT_THROW(pool.pop_random(rng), std::logic_error);
}

TEST(CompactTaskPool, CompactionTriggersAtThresholdAndStaysCorrect) {
  // capacity = 4 * divisor, so compaction arms once size <= 4.
  const std::uint64_t cap = 4 * CompactTaskPool::kCompactDivisor;
  CompactTaskPool pool(cap);
  for (std::uint64_t id = 0; id + 5 < cap; ++id) pool.remove(id);
  ASSERT_EQ(pool.size(), 5u);
  EXPECT_FALSE(pool.compacted());
  Rng rng(7);
  std::uint64_t id = pool.pop_random(rng);  // size 5: still rejection
  EXPECT_GE(id, cap - 5);
  EXPECT_FALSE(pool.compacted());
  id = pool.pop_random(rng);  // size 4 <= cap/divisor: compacts first
  EXPECT_TRUE(pool.compacted());
  EXPECT_GE(id, cap - 5);
  std::set<std::uint64_t> rest;
  while (!pool.empty()) rest.insert(pool.pop_random(rng));
  EXPECT_EQ(rest.size(), 3u);
  for (const std::uint64_t r : rest) EXPECT_GE(r, cap - 5);
}

TEST(CompactTaskPool, TinyCapacityNeverCompactsButDrains) {
  // capacity < divisor: the compaction condition never holds for a
  // non-empty pool; rejection sampling must still drain it.
  CompactTaskPool pool(10);
  Rng rng(99);
  std::set<std::uint64_t> seen;
  while (!pool.empty()) seen.insert(pool.pop_random(rng));
  EXPECT_FALSE(pool.compacted());
  EXPECT_EQ(seen.size(), 10u);
}

TEST(CompactTaskPool, MixedOpsAfterCompaction) {
  const std::uint64_t cap = 2 * CompactTaskPool::kCompactDivisor;
  CompactTaskPool pool(cap);
  for (std::uint64_t id = 2; id < cap; ++id) pool.remove(id);
  Rng rng(5);
  pool.pop_random(rng);  // size 2 <= cap/128: compacts
  ASSERT_TRUE(pool.compacted());
  // Requeue after compaction: insert lands in the tail and in the
  // bitset; remove() invalidates a tail entry that must be pruned.
  EXPECT_TRUE(pool.insert(50));
  EXPECT_TRUE(pool.contains(50));
  EXPECT_TRUE(pool.remove(50));
  std::set<std::uint64_t> rest;
  while (!pool.empty()) rest.insert(pool.pop_random(rng));
  EXPECT_EQ(rest.size(), 1u);
  EXPECT_TRUE(rest.count(0) || rest.count(1));
}

TEST(CompactTaskPool, PopFirstAfterCompaction) {
  const std::uint64_t cap = 2 * CompactTaskPool::kCompactDivisor;
  CompactTaskPool pool(cap);
  for (std::uint64_t id = 0; id + 2 < cap; ++id) pool.remove(id);
  Rng rng(5);
  pool.pop_random(rng);  // compacts; one of the last two ids remains
  ASSERT_TRUE(pool.compacted());
  const std::uint64_t last = pool.pop_first();
  EXPECT_GE(last, cap - 2);
  EXPECT_TRUE(pool.empty());
}

TEST(CompactTaskPool, ResetRestoresFullPool) {
  CompactTaskPool pool(300);
  Rng rng(11);
  while (!pool.empty()) pool.pop_random(rng);
  EXPECT_TRUE(pool.compacted());
  pool.reset();
  EXPECT_EQ(pool.size(), 300u);
  EXPECT_FALSE(pool.compacted());
  EXPECT_EQ(pool.pop_first(), 0u);
  std::set<std::uint64_t> seen{0};
  while (!pool.empty()) seen.insert(pool.pop_random(rng));
  EXPECT_EQ(seen.size(), 300u);
}

TEST(CompactTaskPool, PopRandomIsRoughlyUniform) {
  // First draw from a fresh 8-id pool, repeated: each id should get
  // ~1/8 of the draws. Loose 3x bounds — this is a sanity check that
  // rejection sampling is not biased, not a statistical test.
  constexpr int kTrials = 4000;
  std::vector<int> hits(8, 0);
  Rng rng(2024);
  CompactTaskPool pool(8);
  for (int t = 0; t < kTrials; ++t) {
    ++hits[pool.pop_random(rng)];
    pool.reset();
  }
  for (int id = 0; id < 8; ++id) {
    EXPECT_GT(hits[id], kTrials / 24) << "id " << id;
    EXPECT_LT(hits[id], kTrials / 3) << "id " << id;
  }
}

TEST(CompactTaskPool, IdsListsSurvivorsAscending) {
  CompactTaskPool pool(12);
  pool.remove(0);
  pool.remove(7);
  pool.remove(11);
  const std::vector<std::uint64_t> expect{1, 2, 3, 4, 5, 6, 8, 9, 10};
  EXPECT_EQ(pool.ids(), expect);
}

// Pinned golden: the exact pop sequence for a fixed seed and op script,
// crossing the compaction boundary. Guards the compact pool's RNG
// consumption and compaction order the way the engine goldens guard the
// dense path. Regenerate only for an intentional format break:
//   tools breaking this MUST bump docs/performance.md's determinism note.
TEST(CompactTaskPool, GoldenPopSequence) {
  const std::uint64_t cap = 2 * CompactTaskPool::kCompactDivisor;  // 256
  CompactTaskPool pool(cap);
  Rng rng(derive_stream(123, "task_pool.golden"));
  // Script: thin the pool to 6 survivors deterministically, then pop
  // everything randomly (compaction fires once size reaches 4).
  for (std::uint64_t id = 0; id < cap; ++id) {
    if (id % 43 != 0) pool.remove(id);
  }
  ASSERT_EQ(pool.size(), 6u);
  std::vector<std::uint64_t> seq;
  while (!pool.empty()) seq.push_back(pool.pop_random(rng));
  const std::vector<std::uint64_t> expect{215, 86, 172, 0, 129, 43};
  EXPECT_EQ(seq, expect);
  EXPECT_TRUE(pool.compacted());
}

// ---------------------------------------------------------------- Facade

TEST(TaskPool, SmallCapacityUsesDenseLayout) {
  TaskPool pool(1000);
  EXPECT_FALSE(pool.uses_compact_layout());
  EXPECT_EQ(pool.size(), 1000u);
}

TEST(TaskPool, ThresholdCapacityUsesCompactLayout) {
  TaskPool pool(TaskPool::kCompactThreshold);
  EXPECT_TRUE(pool.uses_compact_layout());
  EXPECT_EQ(pool.size(), TaskPool::kCompactThreshold);
  EXPECT_EQ(pool.pop_first(), 0u);
  Rng rng(1);
  const std::uint64_t id = pool.pop_random(rng);
  EXPECT_GT(id, 0u);
  EXPECT_LT(id, TaskPool::kCompactThreshold);
  EXPECT_FALSE(pool.contains(id));
  EXPECT_TRUE(pool.insert(id));
  EXPECT_TRUE(pool.contains(id));
}

TEST(TaskPool, DenseLayoutMatchesRawSwapRemovePoolRng) {
  // The facade must consume the RNG exactly like the bare dense pool —
  // this is the bit-identity contract of the engine goldens. A
  // presence-view pool builds its index at the first pop, from a full
  // bitset, so it lays the ids out like a fresh pool and pops the same
  // sequence.
  TaskPool facade(64);
  TaskPool lazy(64, /*presence_view=*/true);
  EXPECT_EQ(lazy.capacity_ids(), 64u);  // before any index exists
  SwapRemovePool raw(64);
  Rng rng_a(777), rng_b(777), rng_c(777);
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t id = raw.pop_random(rng_b);
    EXPECT_EQ(facade.pop_random(rng_a), id);
    EXPECT_EQ(lazy.pop_random(rng_c), id);
  }
  EXPECT_EQ(lazy.capacity_ids(), 64u);
}

// -------------------------------------------------- Removed-set view

// The frontier scans of the dynamic strategies read the pool as a
// removed-id bitset. The compact layout has that set natively; the
// dense layout mirrors it only when opted in at construction.
TEST(TaskPool, RemovedViewTracksDenseLayoutOps) {
  TaskPool pool(100, /*presence_view=*/true);
  EXPECT_TRUE(pool.has_presence_view());
  const DynamicBitset& removed = pool.removed_view();
  EXPECT_TRUE(removed.none());

  Rng rng(5);
  ASSERT_TRUE(pool.remove(42));
  EXPECT_TRUE(removed.test(42));
  const std::uint64_t popped = pool.pop_random(rng);
  EXPECT_TRUE(removed.test(popped));
  const std::uint64_t first = pool.pop_first();
  EXPECT_TRUE(removed.test(first));
  ASSERT_TRUE(pool.insert(42));  // requeue resurfaces in the view
  EXPECT_FALSE(removed.test(42));

  // Exactness: the view must agree with contains() for every id.
  for (std::uint64_t id = 0; id < 100; ++id) {
    EXPECT_EQ(removed.test(id), !pool.contains(id)) << id;
  }

  pool.reset();
  EXPECT_TRUE(removed.none());
  EXPECT_EQ(pool.size(), 100u);
}

TEST(TaskPool, RemovedViewWithoutOptInIsAbsentOnDenseLayout) {
  TaskPool pool(100);
  EXPECT_FALSE(pool.has_presence_view());
}

TEST(TaskPool, RemovedViewTracksCompactLayout) {
  // The compact layout keeps the removed-set anyway, so the view is
  // available regardless of the opt-in flag.
  TaskPool pool(TaskPool::kCompactThreshold);
  EXPECT_TRUE(pool.has_presence_view());
  const DynamicBitset& removed = pool.removed_view();
  ASSERT_TRUE(pool.remove(123456));
  EXPECT_TRUE(removed.test(123456));
  Rng rng(9);
  const std::uint64_t popped = pool.pop_random(rng);
  EXPECT_TRUE(removed.test(popped));
  ASSERT_TRUE(pool.insert(123456));
  EXPECT_FALSE(removed.test(123456));
  pool.reset();
  EXPECT_FALSE(removed.test(popped));
}

TEST(TaskPool, LazyDenseAgreesWithEagerThroughMixedOps) {
  // A presence-view pool defers the swap-remove index; the observable
  // set (size / contains / ids, and removed_view as its complement)
  // must stay identical to the plain eager pool through removes,
  // inserts and a reset.
  TaskPool lazy(200, /*presence_view=*/true);
  TaskPool eager(200);
  for (std::uint64_t id = 0; id < 200; id += 3) {
    ASSERT_EQ(lazy.remove(id), eager.remove(id)) << id;
  }
  EXPECT_FALSE(lazy.remove(3));   // double remove is a no-op
  EXPECT_FALSE(eager.remove(3));
  ASSERT_TRUE(lazy.insert(3));
  ASSERT_TRUE(eager.insert(3));
  EXPECT_FALSE(lazy.insert(3));   // double insert likewise
  EXPECT_FALSE(eager.insert(3));
  EXPECT_THROW(lazy.insert(200), std::out_of_range);
  EXPECT_EQ(lazy.size(), eager.size());
  for (std::uint64_t id = 0; id < 200; ++id) {
    ASSERT_EQ(lazy.contains(id), eager.contains(id)) << id;
    ASSERT_EQ(lazy.removed_view().test(id), !eager.contains(id)) << id;
  }
  auto eager_ids = eager.ids();  // dense order is unspecified; lazy is
  std::sort(eager_ids.begin(), eager_ids.end());  // ascending
  EXPECT_EQ(lazy.ids(), eager_ids);
  lazy.reset();
  eager.reset();
  EXPECT_EQ(lazy.size(), 200u);
  EXPECT_TRUE(lazy.removed_view().none());
}

TEST(TaskPool, LazyDensePopsDrawFromAscendingRebuild) {
  // After a lazy remove stretch, the first pop reconciles the index in
  // one ascending pass: pop_first yields the smallest survivor and
  // pop_random consumes exactly one draw per pop (the bit-identity
  // contract; the *values* come from the ascending layout).
  TaskPool pool(100, /*presence_view=*/true);
  for (std::uint64_t id = 0; id < 50; ++id) ASSERT_TRUE(pool.remove(id));
  EXPECT_EQ(pool.pop_first(), 50u);
  Rng rng_pool(42), rng_ref(42);
  DynamicBitset popped(100);
  std::uint64_t remaining = 49;
  while (!pool.empty()) {
    // Reference: the rebuild laid survivors out ascending, so a pop at
    // position p takes the p-th smallest remaining id and back-fills
    // with the largest (swap-remove).
    const std::uint64_t id = pool.pop_random(rng_pool);
    (void)rng_ref.next_below(remaining--);
    ASSERT_GE(id, 51u);
    ASSERT_FALSE(popped.test(id)) << "double pop of " << id;
    popped.set(id);
  }
  EXPECT_EQ(popped.count(), 49u);
  // Same number of draws consumed: the next value matches.
  EXPECT_EQ(rng_pool.next_u64(), rng_ref.next_u64());
}

TEST(TaskPool, RawWordCommitMatchesPerIdRemovalInBothLayouts) {
  // The frontier kernels OR removal bits straight into the raw
  // removed-set words and settle the count once per request. In both
  // layouts that must leave the pool exactly as per-id remove() does.
  const std::uint64_t base = 60;  // straddles a word boundary
  const std::uint64_t bits = 0x8000'0000'0420'0081ull;
  const std::uint64_t first = 300;  // a strided (column / face) window
  const std::uint64_t stride = 7;
  const std::uint64_t scattered = 0x0123'4567'89ab'cdefull;
  auto check = [&](TaskPool& raw, TaskPool& scalar) {
    ASSERT_EQ(raw.size(), scalar.size());
    std::uint64_t* const rem = raw.raw_removed_words();
    rem[base >> 6] |= bits << (base & 63);
    rem[(base >> 6) + 1] |= bits >> (64 - (base & 63));
    for (std::uint64_t b = 0; b < 64; ++b) {
      if ((bits >> b) & 1) {
        ASSERT_TRUE(scalar.remove(base + b)) << b;
      }
      if ((scattered >> b) & 1) {
        const std::uint64_t id = first + b * stride;
        rem[id >> 6] |= 1ULL << (id & 63);
        ASSERT_TRUE(scalar.remove(id)) << id;
      }
    }
    raw.commit_serial_removals(static_cast<std::uint64_t>(
        std::popcount(bits) + std::popcount(scattered)));
    ASSERT_EQ(raw.size(), scalar.size());
    for (std::uint64_t id = 0; id < 1000; ++id) {
      ASSERT_EQ(raw.contains(id), scalar.contains(id)) << id;
    }
    // The compact layout's ids() is its removed-set read in order, so
    // comparing the sets spares two O(2^25) id vectors.
    if (raw.uses_compact_layout()) {
      ASSERT_EQ(raw.removed_view(), scalar.removed_view());
    } else {
      ASSERT_EQ(raw.ids(), scalar.ids());
    }
    Rng rng_raw(17), rng_scalar(17);
    for (int k = 0; k < 64; ++k) {
      ASSERT_EQ(raw.pop_random(rng_raw), scalar.pop_random(rng_scalar)) << k;
    }
  };
  TaskPool lazy_a(1000, /*presence_view=*/true);
  TaskPool lazy_b(1000, /*presence_view=*/true);
  check(lazy_a, lazy_b);
  TaskPool compact_a(TaskPool::kCompactThreshold);
  TaskPool compact_b(TaskPool::kCompactThreshold);
  ASSERT_TRUE(compact_a.uses_compact_layout());
  check(compact_a, compact_b);
}

TEST(TaskPool, ResetWorksInBothLayouts) {
  Rng rng(3);
  TaskPool small(100);
  while (!small.empty()) small.pop_random(rng);
  small.reset();
  EXPECT_EQ(small.size(), 100u);
  EXPECT_EQ(small.pop_first(), 0u);

  TaskPool big(TaskPool::kCompactThreshold);
  big.pop_first();
  big.pop_random(rng);
  big.reset();
  EXPECT_EQ(big.size(), TaskPool::kCompactThreshold);
  EXPECT_EQ(big.pop_first(), 0u);
}

}  // namespace
}  // namespace hetsched
