// Executor equivalence: every executor x kernel mode (serial or the
// persistent morsel-stealing pool, scalar or vectorized kernels) must
// produce bit-identical outputs AND bit-identical modeled runtimes to the
// serial scalar interpreter — for every query, in both engine modes, and
// (scalar guarded path, same morsel API) under an injected-fault preset.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <memory>
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

class ExecutorEquivalenceTest : public ::testing::TestWithParam<EngineMode> {};

TEST_P(ExecutorEquivalenceTest, PoolBitIdenticalToSerialScalar) {
  PoolEnv& env = PoolEnv::Get();

  EngineConfig serial = BaseConfig(GetParam());
  serial.executor = ExecutorKind::kSerial;
  serial.vectorized = false;
  SsbEngine serial_engine(&env.db(), &env.model(), serial);
  ASSERT_TRUE(serial_engine.Prepare().ok());

  // The other three executor x kernel modes, each held to serial-scalar.
  struct Mode {
    const char* name;
    ExecutorKind executor;
    bool vectorized;
  };
  constexpr Mode kModes[] = {
      {"serial-vectorized", ExecutorKind::kSerial, true},
      {"morsel-scalar", ExecutorKind::kMorselStealing, false},
      {"morsel-vectorized", ExecutorKind::kMorselStealing, true},
  };
  std::vector<std::unique_ptr<SsbEngine>> engines;
  for (const Mode& mode : kModes) {
    EngineConfig config = BaseConfig(GetParam());
    config.executor = mode.executor;
    config.vectorized = mode.vectorized;
    // Small morsels so the sf-0.02 fact table (120k rows) still splits
    // into plenty of stealable units.
    config.morsel_tuples = 4096;
    engines.push_back(
        std::make_unique<SsbEngine>(&env.db(), &env.model(), config));
    ASSERT_TRUE(engines.back()->Prepare().ok()) << mode.name;
  }

  for (QueryId query : ssb::AllQueries()) {
    auto serial_run = serial_engine.Execute(query);
    ASSERT_TRUE(serial_run.ok()) << serial_run.status().ToString();
    EXPECT_EQ(serial_run->output, env.reference().Execute(query))
        << ssb::QueryName(query) << ": serial vs reference";
    for (size_t m = 0; m < engines.size(); ++m) {
      auto run = engines[m]->Execute(query);
      ASSERT_TRUE(run.ok()) << kModes[m].name << ": "
                            << run.status().ToString();
      EXPECT_EQ(run->output, serial_run->output)
          << kModes[m].name << "/" << ssb::QueryName(query)
          << ": vs serial-scalar";
      // The vectorized kernels mirror the scalar short-circuit probe
      // counts, so the traffic model sees identical inputs: the projected
      // runtime must match to the bit, not approximately.
      EXPECT_EQ(run->seconds, serial_run->seconds)
          << kModes[m].name << "/" << ssb::QueryName(query)
          << ": modeled runtime must not drift";
      EXPECT_EQ(run->cpu.probes, serial_run->cpu.probes)
          << kModes[m].name << "/" << ssb::QueryName(query);
      EXPECT_EQ(run->cpu.agg_updates, serial_run->cpu.agg_updates)
          << kModes[m].name << "/" << ssb::QueryName(query);
    }
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

// The guarded fault path is scalar but rides the same morsel dispatch:
// results must stay bit-identical to the reference under the moderate
// fault preset.
TEST(ExecutorFaultTest, MorselStealingBitIdenticalUnderModerateFaults) {
  PoolEnv& env = PoolEnv::Get();

  FaultInjector injector(FaultSpec::Preset(2));
  injector.AdvanceTo(5.0);
  MemSystemModel model(injector.Degrade(MemSystemConfig()));
  PmemSpace space(model.config().topology);
  injector.Arm(&space);
  FaultDomain domain;
  domain.space = &space;
  domain.injector = &injector;

  EngineConfig config = BaseConfig(EngineMode::kPmemAware);
  config.executor = ExecutorKind::kMorselStealing;
  config.morsel_tuples = 4096;
  config.fault = &domain;
  SsbEngine engine(&env.db(), &model, config);
  ASSERT_TRUE(engine.Prepare().ok());

  for (QueryId query : ssb::AllQueries()) {
    auto run = engine.Execute(query);
    ASSERT_TRUE(run.ok()) << ssb::QueryName(query) << ": "
                          << run.status().ToString();
    EXPECT_EQ(run->output, env.reference().Execute(query))
        << ssb::QueryName(query);
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
