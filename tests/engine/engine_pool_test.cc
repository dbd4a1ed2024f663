// Executor equivalence: both executors (serial, and the persistent
// morsel-stealing pool) run the vectorized kernels and must produce
// outputs bit-identical to the reference, modeled runtimes bit-identical
// to each other, and per-query probe / aggregate-update counts equal to
// the pinned constants below — for every query, in both engine modes, and
// (guarded row blocks and payload batches) under injected faults.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "fault/fault_domain.h"
#include "ssb/reference.h"

namespace pmemolap {
namespace {

using ssb::Database;
using ssb::QueryId;
/// Shared database + model for the executor tests (dbgen at sf 0.02).
class PoolEnv {
 public:
  static PoolEnv& Get() {
    static PoolEnv env;
    return env;
  }

  const Database& db() const { return db_; }
  const MemSystemModel& model() const { return model_; }
  const ssb::ReferenceExecutor& reference() const { return reference_; }

 private:
  PoolEnv() : db_(*ssb::Generate({.scale_factor = 0.02, .seed = 11})) {}

  Database db_;
  MemSystemModel model_;
  ssb::ReferenceExecutor reference_{&db_};
};

EngineConfig BaseConfig(EngineMode mode) {
  EngineConfig config;
  config.mode = mode;
  config.media = Media::kPmem;
  config.threads = 8;
  if (mode == EngineMode::kUnaware) {
    config.use_both_sockets = false;
    config.pinning = PinningPolicy::kNumaRegion;
  }
  return config;
}

/// Per-query dimension probes and aggregate updates at PoolEnv (sf 0.02,
/// seed 11), in AllQueries() order. Captured from the row-at-a-time
/// interpreter the kernels replaced: its short-circuit plan probes a
/// dimension only for tuples that survived the previous join, and the
/// traffic model prices exactly these counts. Both engine modes agree.
struct PinnedCounts {
  uint64_t probes;
  uint64_t agg_updates;
};
constexpr PinnedCounts kPinnedCounts[] = {
    {15758, 2245},   // Q1.1
    {6475, 95},      // Q1.2
    {6494, 12},      // Q1.3
    {125329, 985},   // Q2.1
    {121295, 245},   // Q2.2
    {120089, 13},    // Q2.3
    {147579, 4387},  // Q3.1
    {125457, 120},   // Q3.2
    {120577, 0},     // Q3.3
    {120577, 0},     // Q3.4
    {150404, 2078},  // Q4.1
    {150404, 591},   // Q4.2
    {123082, 33},    // Q4.3
};

/// Checks one run against the reference output and the pinned counts.
void ExpectReferenceAndPinned(const SsbEngine::QueryRun& run, size_t index,
                              QueryId query, const std::string& label) {
  ASSERT_LT(index, std::size(kPinnedCounts));
  EXPECT_EQ(run.output, PoolEnv::Get().reference().Execute(query))
      << label << "/" << ssb::QueryName(query) << ": vs reference";
  EXPECT_EQ(run.cpu.probes, kPinnedCounts[index].probes)
      << label << "/" << ssb::QueryName(query);
  EXPECT_EQ(run.cpu.agg_updates, kPinnedCounts[index].agg_updates)
      << label << "/" << ssb::QueryName(query);
}

class ExecutorEquivalenceTest : public ::testing::TestWithParam<EngineMode> {};

TEST_P(ExecutorEquivalenceTest, SerialAndMorselMatchReferenceAndPinnedCounts) {
  PoolEnv& env = PoolEnv::Get();

  EngineConfig serial = BaseConfig(GetParam());
  serial.executor = ExecutorKind::kSerial;
  SsbEngine serial_engine(&env.db(), &env.model(), serial);
  ASSERT_TRUE(serial_engine.Prepare().ok());

  EngineConfig morsel = BaseConfig(GetParam());
  morsel.executor = ExecutorKind::kMorselStealing;
  // Small morsels so the sf-0.02 fact table (120k rows) still splits into
  // plenty of stealable units.
  morsel.morsel_tuples = 4096;
  SsbEngine morsel_engine(&env.db(), &env.model(), morsel);
  ASSERT_TRUE(morsel_engine.Prepare().ok());

  const std::vector<QueryId> queries = ssb::AllQueries();
  for (size_t q = 0; q < queries.size(); ++q) {
    const QueryId query = queries[q];
    auto serial_run = serial_engine.Execute(query);
    ASSERT_TRUE(serial_run.ok()) << serial_run.status().ToString();
    ExpectReferenceAndPinned(*serial_run, q, query, "serial");
    auto morsel_run = morsel_engine.Execute(query);
    ASSERT_TRUE(morsel_run.ok()) << morsel_run.status().ToString();
    ExpectReferenceAndPinned(*morsel_run, q, query, "morsel");
    // Both executors feed the traffic model identical inputs: the
    // projected runtime must match to the bit, not approximately.
    EXPECT_EQ(morsel_run->seconds, serial_run->seconds)
        << ssb::QueryName(query) << ": modeled runtime must not drift";
  }
}

INSTANTIATE_TEST_SUITE_P(BothModes, ExecutorEquivalenceTest,
                         ::testing::Values(EngineMode::kPmemAware,
                                           EngineMode::kUnaware),
                         [](const ::testing::TestParamInfo<EngineMode>& info) {
                           return info.param == EngineMode::kPmemAware
                                      ? "Aware"
                                      : "Unaware";
                         });

/// The platform `injector` degrades to at modeled time 5 s (inside every
/// preset's throttle window).
MemSystemConfig DegradedAtFiveSeconds(FaultInjector* injector) {
  injector->AdvanceTo(5.0);
  return injector->Degrade(MemSystemConfig());
}

/// A fault domain over an armed space, on the degraded platform model.
struct FaultFixture {
  explicit FaultFixture(const FaultSpec& spec)
      : injector(spec),
        model(DegradedAtFiveSeconds(&injector)),
        space(model.config().topology) {
    injector.Arm(&space);
    domain.space = &space;
    domain.injector = &injector;
  }

  FaultInjector injector;
  MemSystemModel model;
  PmemSpace space;
  FaultDomain domain;
};

/// Runs all 13 queries on `executor` in fault mode and holds each to the
/// reference and the pinned counts.
void RunGuardedQueries(FaultFixture* fixture, ExecutorKind executor,
                       const std::string& label) {
  PoolEnv& env = PoolEnv::Get();
  EngineConfig config = BaseConfig(EngineMode::kPmemAware);
  config.executor = executor;
  config.morsel_tuples = 4096;
  config.fault = &fixture->domain;
  SsbEngine engine(&env.db(), &fixture->model, config);
  ASSERT_TRUE(engine.Prepare().ok()) << label;

  const std::vector<QueryId> queries = ssb::AllQueries();
  for (size_t q = 0; q < queries.size(); ++q) {
    auto run = engine.Execute(queries[q]);
    ASSERT_TRUE(run.ok()) << label << "/" << ssb::QueryName(queries[q])
                          << ": " << run.status().ToString();
    ExpectReferenceAndPinned(*run, q, queries[q], label);
  }
}

// Fault mode runs the same kernels over guarded row blocks, with every
// probe stage resolved through the guarded dimension replicas: both
// executors stay bit-identical to the reference at the healthy and the
// moderate preset, with the same probe counts as an unguarded run.
TEST(ExecutorFaultTest, BothExecutorsMatchReferenceUnderFaultPresets) {
  for (int intensity : {0, 2}) {
    for (ExecutorKind executor :
         {ExecutorKind::kSerial, ExecutorKind::kMorselStealing}) {
      FaultFixture fixture(FaultSpec::Preset(intensity));
      RunGuardedQueries(&fixture, executor,
                        std::string(FaultIntensityName(intensity)) + "/" +
                            ExecutorKindName(executor));
    }
  }
}

// Dense permanent poison over the dimension replicas forces failovers off
// poisoned near copies: the kernels' batched probes must take the
// GuardedDimension failover path and still return the reference results.
TEST(ExecutorFaultTest, DenseDimensionPoisonFailsOverBitIdentically) {
  FaultSpec spec;
  spec.poison_lines_per_mib = 128.0;
  spec.transient_fraction = 0.0;
  for (ExecutorKind executor :
       {ExecutorKind::kSerial, ExecutorKind::kMorselStealing}) {
    FaultFixture fixture(spec);
    RunGuardedQueries(&fixture, executor, ExecutorKindName(executor));
    EXPECT_GT(fixture.injector.counters().failovers, 0u)
        << ExecutorKindName(executor)
        << ": probes must have failed over off poisoned replicas";
  }
}

// More threads than tuples must not produce degenerate workers: Prepare
// clamps the worker count, and both executors still agree with the
// reference on a tiny database.
TEST(ExecutorClampTest, MoreThreadsThanRows) {
  auto tiny = ssb::Generate({.scale_factor = 0.00002, .seed = 7});
  ASSERT_TRUE(tiny.ok());
  MemSystemModel model;
  ssb::ReferenceExecutor reference(&*tiny);

  for (ExecutorKind kind :
       {ExecutorKind::kSerial, ExecutorKind::kMorselStealing}) {
    EngineConfig config = BaseConfig(EngineMode::kPmemAware);
    config.threads = 10'000;  // way past the row count
    config.executor = kind;
    SsbEngine engine(&*tiny, &model, config);
    ASSERT_TRUE(engine.Prepare().ok()) << ExecutorKindName(kind);
    for (QueryId query : {QueryId::kQ1_1, QueryId::kQ2_2, QueryId::kQ4_3}) {
      auto run = engine.Execute(query);
      ASSERT_TRUE(run.ok()) << ExecutorKindName(kind) << "/"
                            << ssb::QueryName(query) << ": "
                            << run.status().ToString();
      EXPECT_EQ(run->output, reference.Execute(query))
          << ExecutorKindName(kind) << "/" << ssb::QueryName(query);
    }
  }
}

}  // namespace
}  // namespace pmemolap
