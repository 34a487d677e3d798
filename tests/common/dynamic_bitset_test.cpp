#include "common/dynamic_bitset.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

namespace hetsched {
namespace {

TEST(DynamicBitset, StartsAllClear) {
  DynamicBitset bits(100);
  EXPECT_EQ(bits.size(), 100u);
  EXPECT_EQ(bits.count(), 0u);
  EXPECT_TRUE(bits.none());
  EXPECT_FALSE(bits.all());
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(bits.test(i));
}

TEST(DynamicBitset, ValueConstructorSetsEverything) {
  DynamicBitset bits(70, true);
  EXPECT_EQ(bits.count(), 70u);
  EXPECT_TRUE(bits.all());
  EXPECT_FALSE(bits.none());
}

TEST(DynamicBitset, SetAndTest) {
  DynamicBitset bits(130);
  bits.set(0);
  bits.set(63);
  bits.set(64);
  bits.set(129);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(63));
  EXPECT_TRUE(bits.test(64));
  EXPECT_TRUE(bits.test(129));
  EXPECT_FALSE(bits.test(1));
  EXPECT_FALSE(bits.test(128));
  EXPECT_EQ(bits.count(), 4u);
}

TEST(DynamicBitset, Reset) {
  DynamicBitset bits(10);
  bits.set(3);
  bits.reset(3);
  EXPECT_FALSE(bits.test(3));
  EXPECT_TRUE(bits.none());
}

TEST(DynamicBitset, SetIfClearReportsFirstSetOnly) {
  DynamicBitset bits(10);
  EXPECT_TRUE(bits.set_if_clear(5));
  EXPECT_FALSE(bits.set_if_clear(5));
  EXPECT_TRUE(bits.test(5));
  EXPECT_EQ(bits.count(), 1u);
}

TEST(DynamicBitset, CountAcrossWordBoundaries) {
  DynamicBitset bits(200);
  for (std::size_t i = 0; i < 200; i += 3) bits.set(i);
  EXPECT_EQ(bits.count(), 67u);  // ceil(200 / 3)
}

TEST(DynamicBitset, ClearResetsAllBitsKeepsSize) {
  DynamicBitset bits(77, true);
  bits.clear();
  EXPECT_EQ(bits.size(), 77u);
  EXPECT_TRUE(bits.none());
}

TEST(DynamicBitset, ResizeGrowClearsNewBits) {
  DynamicBitset bits(10, true);
  bits.resize(100);
  EXPECT_EQ(bits.size(), 100u);
  EXPECT_EQ(bits.count(), 10u);
  EXPECT_FALSE(bits.test(50));
}

TEST(DynamicBitset, ResizeShrinkDropsTail) {
  DynamicBitset bits(100, true);
  bits.resize(10);
  EXPECT_EQ(bits.size(), 10u);
  EXPECT_EQ(bits.count(), 10u);
  bits.resize(100);
  EXPECT_EQ(bits.count(), 10u);  // bits past the old end stay cleared
}

TEST(DynamicBitset, AllOnExactWordMultiple) {
  DynamicBitset bits(128);
  for (std::size_t i = 0; i < 128; ++i) bits.set(i);
  EXPECT_TRUE(bits.all());
}

TEST(DynamicBitset, EqualityComparesContents) {
  DynamicBitset a(40);
  DynamicBitset b(40);
  a.set(17);
  EXPECT_NE(a, b);
  b.set(17);
  EXPECT_EQ(a, b);
}

TEST(DynamicBitset, EmptyBitsetBehaves) {
  DynamicBitset bits(0);
  EXPECT_EQ(bits.size(), 0u);
  EXPECT_EQ(bits.count(), 0u);
  EXPECT_TRUE(bits.none());
  EXPECT_TRUE(bits.all());  // vacuously
}

// ---------------------------------------------------- Word-level view

TEST(DynamicBitset, WordViewResolvesGenerationClears) {
  DynamicBitset bits(130);
  bits.set(0);
  bits.set(65);
  bits.set(129);
  EXPECT_EQ(bits.word_count(), 3u);
  EXPECT_EQ(bits.word(0), 1ull);
  EXPECT_EQ(bits.word(1), 2ull);
  EXPECT_EQ(bits.word(2), 2ull);
  bits.clear();  // generation bump, no word write
  EXPECT_EQ(bits.word(0), 0ull);
  EXPECT_EQ(bits.word(1), 0ull);
  bits.set(64);
  EXPECT_EQ(bits.word(1), 1ull);
  EXPECT_EQ(bits.word(0), 0ull);  // still stale, still reads zero
  EXPECT_EQ(bits.word_or_zero(2), 0ull);
  EXPECT_EQ(bits.word_or_zero(3), 0ull);  // past the array
}

TEST(DynamicBitset, ForEachSetInRangeVisitsAscending) {
  DynamicBitset bits(200);
  const std::vector<std::size_t> expect{3, 63, 64, 100, 127, 128, 199};
  for (const std::size_t pos : expect) bits.set(pos);

  std::vector<std::size_t> seen;
  bits.for_each_set_in_range(0, 200, [&](std::size_t pos) {
    seen.push_back(pos);
  });
  EXPECT_EQ(seen, expect);

  // Sub-word clipping on both ends, including mid-word boundaries.
  seen.clear();
  bits.for_each_set_in_range(4, 128, [&](std::size_t pos) {
    seen.push_back(pos);
  });
  EXPECT_EQ(seen, (std::vector<std::size_t>{63, 64, 100, 127}));

  seen.clear();
  bits.for_each_set_in_range(63, 64, [&](std::size_t pos) {
    seen.push_back(pos);
  });
  EXPECT_EQ(seen, (std::vector<std::size_t>{63}));

  // Degenerate and clamped ranges.
  seen.clear();
  bits.for_each_set_in_range(100, 100, [&](std::size_t pos) {
    seen.push_back(pos);
  });
  bits.for_each_set_in_range(199, 500, [&](std::size_t pos) {
    seen.push_back(pos);
  });
  EXPECT_EQ(seen, (std::vector<std::size_t>{199}));
}

TEST(ForEachMaskedPresent, AlignedWindowIntersects) {
  DynamicBitset mask(70);
  DynamicBitset absent(256);
  mask.set(0);
  mask.set(65);
  mask.set(69);
  absent.set(64 + 65);  // knocks out mask bit 65 at base 64
  std::vector<std::size_t> seen;
  for_each_masked_present(mask, absent, 64, [&](std::size_t pos) {
    seen.push_back(pos);
  });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 69}));
}

TEST(ForEachMaskedPresent, MisalignedWindowGathersAcrossWords) {
  // base = 100 puts every mask word across a 64-bit boundary of the
  // absent set; verify against a scalar reference over random-ish bits.
  DynamicBitset mask(150);
  DynamicBitset absent(400);
  for (std::size_t pos = 0; pos < 150; pos += 7) mask.set(pos);
  for (std::size_t pos = 0; pos < 400; pos += 3) absent.set(pos);

  std::vector<std::size_t> expect;
  for (std::size_t pos = 0; pos < 150; ++pos) {
    if (mask.test(pos) && !absent.test(100 + pos)) expect.push_back(pos);
  }
  std::vector<std::size_t> seen;
  for_each_masked_present(mask, absent, 100, [&](std::size_t pos) {
    seen.push_back(pos);
  });
  EXPECT_EQ(seen, expect);
  ASSERT_FALSE(seen.empty());
}

TEST(ForEachMaskedPresent, CalleeMayRemoveVisitedBits) {
  // The frontier removes each reported id from the pool (= sets the
  // absent bit) while the scan is in flight; the contract is that the
  // word window was read beforehand, so every original hit is reported.
  DynamicBitset mask(64);
  DynamicBitset absent(64);
  for (std::size_t pos = 0; pos < 64; pos += 2) mask.set(pos);
  std::vector<std::size_t> seen;
  for_each_masked_present(mask, absent, 0, [&](std::size_t pos) {
    absent.set(pos);
    seen.push_back(pos);
  });
  EXPECT_EQ(seen.size(), 32u);
  EXPECT_EQ(absent.count(), 32u);
}

TEST(ForEachMaskedPresent, WindowPastAbsentEndReadsClear) {
  DynamicBitset mask(64);
  DynamicBitset absent(32);
  mask.set(10);
  mask.set(40);  // base 16 + 40 = 56 is past absent.size(); reads clear
  std::vector<std::size_t> seen;
  for_each_masked_present(mask, absent, 16, [&](std::size_t pos) {
    seen.push_back(pos);
  });
  EXPECT_EQ(seen, (std::vector<std::size_t>{10, 40}));
}

TEST(OrShifted, MatchesPerBitSetsAcrossAlignments) {
  const std::uint64_t bits = 0x8000'0401'0000'0081ull;
  for (std::size_t base : {0ull, 1ull, 63ull, 64ull, 100ull}) {
    DynamicBitset batched(256);
    DynamicBitset scalar(256);
    batched.or_shifted(base, bits);
    for (std::size_t b = 0; b < 64; ++b) {
      if ((bits >> b) & 1) scalar.set(base + b);
    }
    EXPECT_EQ(batched, scalar) << "base " << base;
  }
}

TEST(OrShifted, PreservesExistingBitsAndSurvivesClear) {
  DynamicBitset set(128);
  set.set(3);
  set.or_shifted(60, 0b1011);  // bits 60, 61, 63 straddle the word edge
  EXPECT_TRUE(set.test(3));
  EXPECT_TRUE(set.test(60));
  EXPECT_TRUE(set.test(61));
  EXPECT_FALSE(set.test(62));
  EXPECT_TRUE(set.test(63));
  EXPECT_EQ(set.count(), 4u);
  set.clear();  // generation bump: a following OR must start from zero
  set.or_shifted(62, 0b1);
  EXPECT_EQ(set.count(), 1u);
  EXPECT_TRUE(set.test(62));
}

TEST(ForEachMaskedPresentWord, ReportsSameBitsAsPerBitKernel) {
  DynamicBitset mask(150);
  DynamicBitset absent(400);
  for (std::size_t pos = 0; pos < 150; pos += 5) mask.set(pos);
  for (std::size_t pos = 0; pos < 400; pos += 3) absent.set(pos);

  std::vector<std::size_t> expect;
  for_each_masked_present(mask, absent, 100, [&](std::size_t pos) {
    expect.push_back(pos);
  });
  std::vector<std::size_t> seen;
  for_each_masked_present_word(
      mask, absent, 100, [&](std::size_t word, std::uint64_t hits) {
        ASSERT_NE(hits, 0u);
        while (hits != 0) {
          seen.push_back((word << 6) +
                         static_cast<std::size_t>(std::countr_zero(hits)));
          hits &= hits - 1;
        }
      });
  EXPECT_EQ(seen, expect);
  ASSERT_FALSE(seen.empty());
}

TEST(ForEachMaskedPresentWord, CalleeMayRetireTheReportedWindow) {
  // The frontier ORs each hit word back into the scanned set while the
  // scan is in flight; the window is gathered first, so every original
  // hit is still reported and no bit twice.
  DynamicBitset mask(128);
  DynamicBitset absent(192);
  for (std::size_t pos = 0; pos < 128; pos += 2) mask.set(pos);
  std::size_t reported = 0;
  for_each_masked_present_word(
      mask, absent, 32, [&](std::size_t word, std::uint64_t hits) {
        absent.or_shifted(32 + (word << 6), hits);
        reported += static_cast<std::size_t>(std::popcount(hits));
      });
  EXPECT_EQ(reported, 64u);
  EXPECT_EQ(absent.count(), 64u);
}

TEST(OrMaskIntoRange, WritesMaskAtOffset) {
  DynamicBitset mask(100);
  mask.set(0);
  mask.set(37);
  mask.set(99);
  DynamicBitset dst(400);
  dst.set(1);  // pre-existing bit outside the range must survive
  or_mask_into_range(dst, mask, 150);
  EXPECT_EQ(dst.count(), 4u);
  EXPECT_TRUE(dst.test(1));
  EXPECT_TRUE(dst.test(150));
  EXPECT_TRUE(dst.test(150 + 37));
  EXPECT_TRUE(dst.test(150 + 99));
}

}  // namespace
}  // namespace hetsched
