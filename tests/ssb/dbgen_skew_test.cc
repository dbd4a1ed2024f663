// Tests for the skewed data generation option and the parallel execution
// path of the engine (which skew stresses: hot keys hammer shared index
// regions from every worker thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "engine/engine.h"
#include "ssb/dbgen.h"
#include "ssb/reference.h"

namespace pmemolap::ssb {
namespace {

TEST(DbgenSkewTest, UniformByDefault) {
  auto db = Generate({.scale_factor = 0.02, .seed = 4});
  ASSERT_TRUE(db.ok());
  std::map<int32_t, uint64_t> counts;
  for (const LineorderRow& lo : db->lineorder) counts[lo.suppkey]++;
  uint64_t expected = db->lineorder.size() / db->supplier.size();
  uint64_t max_count = 0;
  for (const auto& [key, count] : counts) {
    (void)key;
    max_count = std::max(max_count, count);
  }
  // Uniform: the hottest supplier is within a few sigma of the mean.
  EXPECT_LT(max_count, expected * 2);
}

TEST(DbgenSkewTest, SkewConcentratesKeys) {
  auto db = Generate({.scale_factor = 0.02, .seed = 4, .key_skew = 1.0});
  ASSERT_TRUE(db.ok());
  std::map<int32_t, uint64_t> counts;
  for (const LineorderRow& lo : db->lineorder) counts[lo.custkey]++;
  uint64_t expected = db->lineorder.size() / db->customer.size();
  uint64_t max_count = 0;
  for (const auto& [key, count] : counts) {
    (void)key;
    max_count = std::max(max_count, count);
  }
  // Zipf(1): the hottest customer receives far more than its fair share.
  EXPECT_GT(max_count, expected * 20);
}

TEST(DbgenSkewTest, KeysStayInRange) {
  auto db = Generate({.scale_factor = 0.01, .seed = 6, .key_skew = 1.2});
  ASSERT_TRUE(db.ok());
  for (const LineorderRow& lo : db->lineorder) {
    EXPECT_GE(lo.custkey, 1);
    EXPECT_LE(lo.custkey, static_cast<int32_t>(db->customer.size()));
    EXPECT_GE(lo.suppkey, 1);
    EXPECT_LE(lo.suppkey, static_cast<int32_t>(db->supplier.size()));
    EXPECT_GE(lo.partkey, 1);
    EXPECT_LE(lo.partkey, static_cast<int32_t>(db->part.size()));
  }
}

TEST(DbgenSkewTest, SkewIsDeterministic) {
  auto a = Generate({.scale_factor = 0.01, .seed = 6, .key_skew = 1.0});
  auto b = Generate({.scale_factor = 0.01, .seed = 6, .key_skew = 1.0});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < a->lineorder.size(); i += 503) {
    EXPECT_EQ(a->lineorder[i].custkey, b->lineorder[i].custkey) << i;
  }
}

TEST(DbgenSkewTest, QueriesStayCorrectUnderSkew) {
  auto db = Generate({.scale_factor = 0.02, .seed = 4, .key_skew = 1.0});
  ASSERT_TRUE(db.ok());
  ReferenceExecutor reference(&db.value());
  pmemolap::MemSystemModel model;
  pmemolap::EngineConfig config;
  config.mode = pmemolap::EngineMode::kPmemAware;
  config.threads = 36;
  pmemolap::SsbEngine engine(&db.value(), &model, config);
  ASSERT_TRUE(engine.Prepare().ok());
  for (QueryId query : {QueryId::kQ1_1, QueryId::kQ2_1, QueryId::kQ3_1,
                        QueryId::kQ4_3}) {
    auto run = engine.Execute(query);
    ASSERT_TRUE(run.ok());
    EXPECT_TRUE(run->output == reference.Execute(query))
        << QueryName(query);
  }
}

TEST(ParallelExecutionTest, MatchesSerialExecution) {
  auto db = Generate({.scale_factor = 0.02, .seed = 4});
  ASSERT_TRUE(db.ok());
  pmemolap::MemSystemModel model;
  pmemolap::EngineConfig parallel;
  parallel.mode = pmemolap::EngineMode::kPmemAware;
  parallel.threads = 36;
  parallel.executor = pmemolap::ExecutorKind::kMorselStealing;
  pmemolap::EngineConfig serial = parallel;
  serial.executor = pmemolap::ExecutorKind::kSerial;

  pmemolap::SsbEngine par_engine(&db.value(), &model, parallel);
  pmemolap::SsbEngine ser_engine(&db.value(), &model, serial);
  ASSERT_TRUE(par_engine.Prepare().ok());
  ASSERT_TRUE(ser_engine.Prepare().ok());
  for (QueryId query : AllQueries()) {
    auto par = par_engine.Execute(query);
    auto ser = ser_engine.Execute(query);
    ASSERT_TRUE(par.ok());
    ASSERT_TRUE(ser.ok());
    EXPECT_TRUE(par->output == ser->output) << QueryName(query);
    // Probe counts and CPU work are identical regardless of threading.
    EXPECT_EQ(par->cpu.probes, ser->cpu.probes) << QueryName(query);
    EXPECT_EQ(par->cpu.tuples_scanned, ser->cpu.tuples_scanned);
    EXPECT_EQ(par->cpu.agg_updates, ser->cpu.agg_updates);
  }
}

}  // namespace
}  // namespace pmemolap::ssb
