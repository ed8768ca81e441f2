#include "cache/prefetch_cache.hpp"

#include <gtest/gtest.h>

namespace pfp::cache {
namespace {

PrefetchEntry entry(BlockId block, double cost, bool obl = false) {
  PrefetchEntry e;
  e.block = block;
  e.probability = 0.5;
  e.depth = 1;
  e.eject_cost = cost;
  e.obl = obl;
  return e;
}

TEST(PrefetchCache, InsertAndLookup) {
  PrefetchCache c(4);
  c.insert(entry(1, 0.5));
  const auto got = c.lookup(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->block, 1u);
  EXPECT_DOUBLE_EQ(got->eject_cost, 0.5);
  EXPECT_FALSE(c.lookup(2).has_value());
}

TEST(PrefetchCache, RemoveReturnsEntryAndFreesSlot) {
  PrefetchCache c(1);
  c.insert(entry(1, 0.5));
  const auto removed = c.remove(1);
  EXPECT_EQ(removed.block, 1u);
  EXPECT_EQ(c.size(), 0u);
  c.insert(entry(2, 0.1));  // slot reusable
  EXPECT_TRUE(c.contains(2));
}

TEST(PrefetchCache, CheapestFindsMinimumCost) {
  PrefetchCache c(8);
  c.insert(entry(1, 0.9));
  c.insert(entry(2, 0.1));
  c.insert(entry(3, 0.5));
  ASSERT_TRUE(c.cheapest().has_value());
  EXPECT_EQ(c.cheapest()->block, 2u);
}

TEST(PrefetchCache, CheapestSurvivesRemovals) {
  PrefetchCache c(8);
  c.insert(entry(1, 0.1));
  c.insert(entry(2, 0.2));
  c.remove(1);  // stale heap top must be skipped
  ASSERT_TRUE(c.cheapest().has_value());
  EXPECT_EQ(c.cheapest()->block, 2u);
}

TEST(PrefetchCache, CheapestEmptyIsNullopt) {
  PrefetchCache c(2);
  EXPECT_FALSE(c.cheapest().has_value());
  c.insert(entry(1, 0.3));
  c.remove(1);
  EXPECT_FALSE(c.cheapest().has_value());
}

TEST(PrefetchCache, OldestOblTracksInsertionOrder) {
  PrefetchCache c(8);
  c.insert(entry(1, 0.1, /*obl=*/true));
  c.insert(entry(2, 0.1, /*obl=*/false));
  c.insert(entry(3, 0.1, /*obl=*/true));
  EXPECT_EQ(c.obl_count(), 2u);
  EXPECT_EQ(*c.oldest_obl(), 1u);
  c.remove(1);
  EXPECT_EQ(*c.oldest_obl(), 3u);
  c.remove(3);
  EXPECT_FALSE(c.oldest_obl().has_value());
}

TEST(PrefetchCache, OldestAnyTracksInsertionOrder) {
  PrefetchCache c(8);
  c.insert(entry(5, 0.1));
  c.insert(entry(6, 0.1));
  EXPECT_EQ(*c.oldest_any(), 5u);
  c.remove(5);
  EXPECT_EQ(*c.oldest_any(), 6u);
}

TEST(PrefetchCache, EntriesListsAllResidents) {
  PrefetchCache c(8);
  c.insert(entry(1, 0.1));
  c.insert(entry(2, 0.2));
  const auto all = c.entries();
  EXPECT_EQ(all.size(), 2u);
}

TEST(PrefetchCache, StressReuseKeepsHeapConsistent) {
  PrefetchCache c(16);
  for (int round = 0; round < 1'000; ++round) {
    const BlockId b = static_cast<BlockId>(round % 16 + 1);
    if (c.contains(b)) {
      c.remove(b);
    }
    c.insert(entry(b, static_cast<double>((round * 7) % 13)));
    ASSERT_TRUE(c.cheapest().has_value());
    // cheapest must actually be a resident minimum
    double min_cost = 1e9;
    for (const auto& e : c.entries()) {
      min_cost = std::min(min_cost, e.eject_cost);
    }
    ASSERT_DOUBLE_EQ(c.cheapest()->eject_cost, min_cost);
  }
}

}  // namespace
}  // namespace pfp::cache
