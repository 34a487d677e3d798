#include "common/dynamic_bitset.hpp"

#include <gtest/gtest.h>

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

TEST(DynamicBitset, WordViewReadsStoredWordsAndClearZeroesThem) {
  DynamicBitset bits(130);
  bits.set(0);
  bits.set(65);
  bits.set(129);
  EXPECT_EQ(bits.word_count(), 3u);
  EXPECT_EQ(bits.word(0), 1ull);
  EXPECT_EQ(bits.word(1), 2ull);
  EXPECT_EQ(bits.word(2), 2ull);
  EXPECT_EQ(bits.raw_words()[1], 2ull);
  bits.clear();
  EXPECT_EQ(bits.word(0), 0ull);
  EXPECT_EQ(bits.word(1), 0ull);
  EXPECT_EQ(bits.word(2), 0ull);
  bits.raw_words()[1] |= 1ull;  // raw writes are the bitset's own bits
  EXPECT_TRUE(bits.test(64));
  EXPECT_EQ(bits.count(), 1u);
}

}  // namespace
}  // namespace hetsched
