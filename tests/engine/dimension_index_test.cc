#include "engine/dimension_index.h"

#include <gtest/gtest.h>

namespace pmemolap {
namespace {

class DimensionIndexTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(DimensionIndexTest, InsertGetRoundTrip) {
  DimensionIndex index(GetParam());
  ASSERT_TRUE(index.Insert(19940101, 0xABCD).ok());
  EXPECT_EQ(index.Get(19940101).value(), 0xABCDu);
  EXPECT_FALSE(index.Get(19940102).has_value());
  EXPECT_EQ(index.size(), 1u);
}

TEST_P(DimensionIndexTest, DuplicatesRejected) {
  DimensionIndex index(GetParam());
  ASSERT_TRUE(index.Insert(1, 10).ok());
  EXPECT_EQ(index.Insert(1, 20).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(index.Get(1).value(), 10u);
}

TEST_P(DimensionIndexTest, AbsentKeyMisses) {
  DimensionIndex index(GetParam());
  ASSERT_TRUE(index.Insert(1, 10).ok());
  EXPECT_EQ(index.Get(1).value(), 10u);
  EXPECT_FALSE(index.Get(2).has_value());  // key 2 was never inserted
}

TEST_P(DimensionIndexTest, StorageGrowsWithEntries) {
  DimensionIndex index(GetParam());
  for (uint64_t key = 0; key < 100; ++key) {
    ASSERT_TRUE(index.Insert(key, key).ok());
  }
  uint64_t small = index.StorageBytes();
  for (uint64_t key = 100; key < 100000; ++key) {
    ASSERT_TRUE(index.Insert(key, key).ok());
  }
  EXPECT_GT(index.StorageBytes(), small);
  EXPECT_EQ(index.size(), 100000u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, DimensionIndexTest,
                         ::testing::Values(IndexKind::kDash,
                                           IndexKind::kChained),
                         [](const auto& info) {
                           return info.param == IndexKind::kDash ? "Dash"
                                                                 : "Chained";
                         });

TEST(DimensionIndexCostTest, DashProbesOneOptaneLine) {
  DimensionIndex index(IndexKind::kDash);
  ProbeCost cost = index.probe_cost();
  EXPECT_EQ(cost.access_bytes, 256u);
  EXPECT_LT(cost.accesses_per_probe, 1.5);
}

TEST(DimensionIndexCostTest, ChainedProbesChaseSmallPointers) {
  DimensionIndex index(IndexKind::kChained);
  ProbeCost cost = index.probe_cost();
  EXPECT_EQ(cost.access_bytes, 64u);
  EXPECT_GT(cost.accesses_per_probe, 2.0);
  // The unaware index moves more *and smaller* random traffic per probe —
  // the mechanism behind Hyrise's PMEM penalty.
  DimensionIndex dash(IndexKind::kDash);
  EXPECT_GT(cost.accesses_per_probe * cost.access_bytes /
                (dash.probe_cost().accesses_per_probe * 256.0),
            0.5);
}

}  // namespace
}  // namespace pmemolap
