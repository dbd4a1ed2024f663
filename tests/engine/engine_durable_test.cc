// End-to-end durable ingest: the engine fed epoch-by-epoch through a
// crash-consistent DurableTable must answer every SSB query bit-identical
// to the reference executor, keep pinned snapshots stable while ingest
// advances, surface a modeled crash as Unavailable until Recover() runs
// (pausing admission while it replays), and price standing ingest
// traffic into query runtimes. Both executors must agree on results and
// modeled time at every epoch prefix, and the kernels must answer from
// the durable image, never from the source rows.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "durability/crash_injector.h"
#include "engine/engine.h"
#include "fault/fault_domain.h"
#include "governor/governor.h"
#include "ssb/reference.h"

namespace pmemolap {
namespace {

using ssb::Database;
using ssb::QueryId;

/// Shared database for the durable end-to-end tests (dbgen at sf 0.01).
class DurableEnv {
 public:
  static DurableEnv& Get() {
    static DurableEnv env;
    return env;
  }

  const Database& db() const { return db_; }
  const ssb::ReferenceExecutor& reference() const { return reference_; }

 private:
  DurableEnv() : db_(*ssb::Generate({.scale_factor = 0.01, .seed = 11})) {}

  Database db_;
  ssb::ReferenceExecutor reference_{&db_};
};

EngineConfig DurableConfig(DurableTable* table) {
  EngineConfig config;
  config.mode = EngineMode::kPmemAware;
  config.media = Media::kPmem;
  config.threads = 8;
  config.durable = table;
  return config;
}

/// Ingests db.lineorder in `epochs` prefix-order batches through the
/// engine; returns the number of Appends that were acknowledged.
uint64_t IngestInEpochs(SsbEngine* engine, const Database& db, int epochs) {
  const uint64_t total = db.lineorder.size();
  const uint64_t batch = (total + epochs - 1) / epochs;
  uint64_t acked = 0;
  for (uint64_t offset = 0; offset < total; offset += batch) {
    uint64_t count = std::min(batch, total - offset);
    if (engine->Ingest(db.lineorder.data() + offset, count).ok()) ++acked;
  }
  return acked;
}

TEST(EngineDurableTest, AllQueriesBitIdenticalAfterFullIngest) {
  DurableEnv& env = DurableEnv::Get();
  MemSystemModel model;
  PmemSpace space(model.config().topology);
  auto table = DurableTable::Create(&space, nullptr, DurableTable::Options());
  ASSERT_TRUE(table.ok());

  SsbEngine engine(&env.db(), &model, DurableConfig(table->get()));
  ASSERT_TRUE(engine.Prepare().ok());
  EXPECT_EQ(IngestInEpochs(&engine, env.db(), 6), 6u);
  EXPECT_EQ((*table)->committed_epoch(), 6u);

  for (QueryId query : ssb::AllQueries()) {
    Result<SsbEngine::QueryRun> run = engine.Execute(query);
    ASSERT_TRUE(run.ok()) << ssb::QueryName(query) << ": "
                          << run.status().ToString();
    EXPECT_EQ(run->output, env.reference().Execute(query))
        << ssb::QueryName(query) << " must be bit-identical over the"
        << " durable table";
    EXPECT_GT(run->seconds, 0.0);
  }
}

/// A copy of `db` whose fact table is the first `rows` rows of `lineorder`
/// — the database the reference executor answers a snapshot from.
Database WithLineorderPrefix(const Database& db,
                             const std::vector<ssb::LineorderRow>& lineorder,
                             uint64_t rows) {
  Database prefix;
  prefix.date = db.date;
  prefix.customer = db.customer;
  prefix.supplier = db.supplier;
  prefix.part = db.part;
  prefix.lineorder.assign(lineorder.begin(),
                          lineorder.begin() + static_cast<ptrdiff_t>(rows));
  return prefix;
}

/// What one durable query run must reproduce on both executors: the
/// output, the modeled time and the work counts pricing uses.
struct DurableObservation {
  ssb::QueryOutput output;
  double seconds = 0.0;
  std::map<std::string, double> phase_seconds;
  uint64_t probes = 0;
  uint64_t agg_updates = 0;
};

TEST(EngineDurableTest, ExecutorKernelModesAgreeOnEveryEpochPrefix) {
  DurableEnv& env = DurableEnv::Get();
  const Database& db = env.db();
  constexpr int kEpochs = 6;
  const uint64_t total = db.lineorder.size();
  const uint64_t batch = (total + kEpochs - 1) / kEpochs;
  // Neither the morsel size nor any epoch prefix is a multiple of the
  // durable block, so morsel, block and snapshot boundaries all fall
  // mid-block.
  constexpr uint64_t kMorselTuples = 3000;
  ASSERT_NE(batch % 2048, 0u);

  const std::vector<ExecutorKind> modes = {ExecutorKind::kSerial,
                                           ExecutorKind::kMorselStealing};
  // observed[mode][epoch * 13 + query]. Each mode runs on its own table
  // and governor, fed the same epochs and queries in the same order, so
  // the governor's decisions (and with them modeled time) line up.
  std::vector<std::vector<DurableObservation>> observed(modes.size());
  for (size_t m = 0; m < modes.size(); ++m) {
    MemSystemModel model;
    PmemSpace space(model.config().topology);
    auto table =
        DurableTable::Create(&space, nullptr, DurableTable::Options());
    ASSERT_TRUE(table.ok());
    governor::BandwidthGovernor governor(&model);
    EngineConfig config = DurableConfig(table->get());
    config.executor = modes[m];
    config.morsel_tuples = kMorselTuples;
    config.governor = &governor;
    SsbEngine engine(&db, &model, config);
    ASSERT_TRUE(engine.Prepare().ok());
    for (uint64_t offset = 0; offset < total; offset += batch) {
      ASSERT_TRUE(engine
                      .Ingest(db.lineorder.data() + offset,
                              std::min(batch, total - offset))
                      .ok());
      for (QueryId query : ssb::AllQueries()) {
        Result<SsbEngine::QueryRun> run = engine.Execute(query);
        ASSERT_TRUE(run.ok()) << ssb::QueryName(query) << ": "
                              << run.status().ToString();
        observed[m].push_back({run->output, run->seconds,
                               run->phase_seconds, run->cpu.probes,
                               run->cpu.agg_updates});
      }
    }
  }

  const size_t queries = ssb::AllQueries().size();
  ASSERT_EQ(observed[0].size(), static_cast<size_t>(kEpochs) * queries);
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    const uint64_t rows =
        std::min(total, static_cast<uint64_t>(epoch + 1) * batch);
    const Database prefix = WithLineorderPrefix(db, db.lineorder, rows);
    const ssb::ReferenceExecutor reference(&prefix);
    for (size_t q = 0; q < queries; ++q) {
      const QueryId query = ssb::AllQueries()[q];
      const size_t at = static_cast<size_t>(epoch) * queries + q;
      const DurableObservation& base = observed[0][at];
      EXPECT_EQ(base.output, reference.Execute(query))
          << ssb::QueryName(query) << " at epoch " << epoch + 1;
      for (size_t m = 1; m < modes.size(); ++m) {
        const DurableObservation& other = observed[m][at];
        const std::string where =
            std::string(ssb::QueryName(query)) + " at epoch " +
            std::to_string(epoch + 1) + ", " + ExecutorKindName(modes[m]);
        EXPECT_EQ(other.output, base.output) << where;
        EXPECT_EQ(other.seconds, base.seconds) << where;
        EXPECT_EQ(other.phase_seconds, base.phase_seconds) << where;
        EXPECT_EQ(other.probes, base.probes) << where;
        EXPECT_EQ(other.agg_updates, base.agg_updates) << where;
      }
    }
  }
}

TEST(EngineDurableTest, VectorizedQueriesReadTheDurableImageNotSourceRows) {
  DurableEnv& env = DurableEnv::Get();
  const Database& db = env.db();
  // The durable table receives different rows than the engine's db holds:
  // every revenue and extendedprice moves, and every seventh discount
  // shifts within its 0..10 domain. A kernel that read db.lineorder (or
  // a projection of it) instead of the snapshot would answer the source
  // rows' values.
  std::vector<ssb::LineorderRow> mutated = db.lineorder;
  for (size_t i = 0; i < mutated.size(); ++i) {
    mutated[i].revenue += 7;
    mutated[i].extendedprice += 3;
    if (i % 7 == 0) mutated[i].discount = (mutated[i].discount + 4) % 11;
  }
  const uint64_t total = mutated.size();
  const uint64_t half = total / 2;
  const Database early = WithLineorderPrefix(db, mutated, half);
  const Database full = WithLineorderPrefix(db, mutated, total);
  const ssb::ReferenceExecutor early_reference(&early);
  const ssb::ReferenceExecutor full_reference(&full);
  // Q3.3 and Q3.4 select no rows at sf 0.01 (no supplier sits in a UK
  // city), so they cannot tell the two images apart; every other query
  // must answer differently over the mutated rows.
  size_t discriminating = 0;
  for (QueryId query : ssb::AllQueries()) {
    if (full_reference.Execute(query) != env.reference().Execute(query)) {
      ++discriminating;
    }
  }
  ASSERT_EQ(discriminating, ssb::AllQueries().size() - 2);

  for (ExecutorKind executor :
       {ExecutorKind::kSerial, ExecutorKind::kMorselStealing}) {
    MemSystemModel model;
    PmemSpace space(model.config().topology);
    auto table =
        DurableTable::Create(&space, nullptr, DurableTable::Options());
    ASSERT_TRUE(table.ok());
    EngineConfig config = DurableConfig(table->get());
    config.executor = executor;
    SsbEngine engine(&db, &model, config);
    ASSERT_TRUE(engine.Prepare().ok());
    Result<uint64_t> pinned = engine.Ingest(mutated.data(), half);
    ASSERT_TRUE(pinned.ok());
    ASSERT_TRUE(engine.Ingest(mutated.data() + half, total - half).ok());

    qos::QueryOptions at_pin;
    at_pin.snapshot_epoch = *pinned;
    for (QueryId query : ssb::AllQueries()) {
      Result<SsbEngine::QueryRun> latest = engine.Execute(query);
      ASSERT_TRUE(latest.ok()) << latest.status().ToString();
      EXPECT_EQ(latest->output, full_reference.Execute(query))
          << ssb::QueryName(query) << " (" << ExecutorKindName(executor)
          << ") at the latest snapshot";
      Result<SsbEngine::QueryRun> early_run = engine.Execute(query, at_pin);
      ASSERT_TRUE(early_run.ok()) << early_run.status().ToString();
      EXPECT_EQ(early_run->output, early_reference.Execute(query))
          << ssb::QueryName(query) << " (" << ExecutorKindName(executor)
          << ") at pinned epoch " << *pinned;
    }
  }
}

TEST(EngineDurableTest, PinnedSnapshotIsStableWhileIngestAdvances) {
  DurableEnv& env = DurableEnv::Get();
  MemSystemModel model;
  PmemSpace space(model.config().topology);
  auto table = DurableTable::Create(&space, nullptr, DurableTable::Options());
  ASSERT_TRUE(table.ok());

  SsbEngine engine(&env.db(), &model, DurableConfig(table->get()));
  ASSERT_TRUE(engine.Prepare().ok());

  const uint64_t total = env.db().lineorder.size();
  const uint64_t half = total / 2;
  ASSERT_TRUE(engine.Ingest(env.db().lineorder.data(), half).ok());
  const uint64_t pinned = (*table)->committed_epoch();
  const QueryId query = ssb::AllQueries().front();

  qos::QueryOptions at_pin;
  at_pin.snapshot_epoch = pinned;
  Result<SsbEngine::QueryRun> before = engine.Execute(query, at_pin);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // Epoch 2 lands the rest of the table; the pinned snapshot must not
  // see any of it, and the latest snapshot must now match the reference.
  ASSERT_TRUE(
      engine.Ingest(env.db().lineorder.data() + half, total - half).ok());
  Result<SsbEngine::QueryRun> after = engine.Execute(query, at_pin);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(before->output, after->output)
      << "a pinned snapshot may not drift as later epochs commit";

  Result<SsbEngine::QueryRun> latest = engine.Execute(query);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->output, env.reference().Execute(query));

  // An uncommitted epoch is not a valid snapshot.
  qos::QueryOptions future;
  future.snapshot_epoch = (*table)->committed_epoch() + 1;
  EXPECT_EQ(engine.Execute(query, future).status().code(),
            StatusCode::kNotFound);
}

TEST(EngineDurableTest, CrashMidIngestRecoversUnderAdmission) {
  DurableEnv& env = DurableEnv::Get();
  MemSystemModel model;
  PmemSpace space(model.config().topology);
  // Epoch 4's Append spans boundaries 21..27 (7 per ntstore append);
  // 23 is its commit-marker ntstore — the epoch dies uncommitted.
  CrashInjector crash(/*seed=*/0xD15C, CrashPlan{/*boundary_index=*/23});
  auto table =
      DurableTable::Create(&space, &crash, DurableTable::Options());
  ASSERT_TRUE(table.ok());

  qos::AdmissionController gate;
  EngineConfig config = DurableConfig(table->get());
  config.admission = &gate;
  SsbEngine engine(&env.db(), &model, config);
  ASSERT_TRUE(engine.Prepare().ok());

  EXPECT_EQ(IngestInEpochs(&engine, env.db(), 6), 3u);
  ASSERT_TRUE(crash.crashed());

  // Until recovery runs, queries admit but fail at the first snapshot
  // read — torn state is never served.
  const QueryId query = ssb::AllQueries().front();
  EXPECT_EQ(engine.Execute(query).status().code(), StatusCode::kUnavailable);

  Result<RecoveryStats> stats = engine.Recover();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->committed_epoch, 3u);
  EXPECT_FALSE(gate.recovery_paused())
      << "the admission pause must lift before Recover returns";

  // Resume ingest for the lost suffix, then every query is bit-identical.
  const uint64_t total = env.db().lineorder.size();
  const uint64_t batch = (total + 5) / 6;
  for (uint64_t offset = 3 * batch; offset < total; offset += batch) {
    uint64_t count = std::min(batch, total - offset);
    ASSERT_TRUE(engine.Ingest(env.db().lineorder.data() + offset, count).ok());
  }
  EXPECT_EQ((*table)->committed_epoch(), 6u);
  for (QueryId q : ssb::AllQueries()) {
    Result<SsbEngine::QueryRun> run = engine.Execute(q);
    ASSERT_TRUE(run.ok()) << ssb::QueryName(q) << ": "
                          << run.status().ToString();
    EXPECT_EQ(run->output, env.reference().Execute(q)) << ssb::QueryName(q);
  }
}

TEST(EngineDurableTest, StandingIngestTrafficPricesIntoQueries) {
  DurableEnv& env = DurableEnv::Get();
  MemSystemModel model;
  PmemSpace space(model.config().topology);
  auto table = DurableTable::Create(&space, nullptr, DurableTable::Options());
  ASSERT_TRUE(table.ok());

  SsbEngine engine(&env.db(), &model, DurableConfig(table->get()));
  ASSERT_TRUE(engine.Prepare().ok());
  EXPECT_EQ(IngestInEpochs(&engine, env.db(), 6), 6u);

  // Right after ingest the table's pending log/apply writes ride along as
  // background traffic; draining them returns queries to solo pricing.
  ASSERT_FALSE((*table)->standing_traffic().empty());
  const QueryId query = ssb::AllQueries().front();
  Result<SsbEngine::QueryRun> contended = engine.Execute(query);
  ASSERT_TRUE(contended.ok());
  (*table)->DrainIngestTraffic();
  ASSERT_TRUE((*table)->standing_traffic().empty());
  Result<SsbEngine::QueryRun> solo = engine.Execute(query);
  ASSERT_TRUE(solo.ok());
  EXPECT_GT(contended->seconds, solo->seconds)
      << "ingest log writes must show up in the query's modeled runtime";
  EXPECT_EQ(contended->output, solo->output);
}

TEST(EngineDurableTest, DurableAndFaultModesAreMutuallyExclusive) {
  DurableEnv& env = DurableEnv::Get();
  MemSystemModel model;
  PmemSpace space(model.config().topology);
  auto table = DurableTable::Create(&space, nullptr, DurableTable::Options());
  ASSERT_TRUE(table.ok());

  FaultInjector injector(FaultSpec::Healthy());
  FaultDomain domain;
  domain.space = &space;
  domain.injector = &injector;

  EngineConfig config = DurableConfig(table->get());
  config.fault = &domain;
  SsbEngine engine(&env.db(), &model, config);
  EXPECT_EQ(engine.Prepare().code(), StatusCode::kInvalidArgument);
}

TEST(EngineDurableTest, PrepareRejectsUndersizedDurableCapacity) {
  DurableEnv& env = DurableEnv::Get();
  MemSystemModel model;
  PmemSpace space(model.config().topology);
  DurableTable::Options options;
  options.capacity_bytes = 1 * kMiB;  // < 60000 rows * 128 B
  auto table = DurableTable::Create(&space, nullptr, options);
  ASSERT_TRUE(table.ok());
  SsbEngine engine(&env.db(), &model, DurableConfig(table->get()));
  EXPECT_EQ(engine.Prepare().code(), StatusCode::kInvalidArgument);
}

TEST(EngineDurableTest, IngestAndRecoverRequireDurableMode) {
  DurableEnv& env = DurableEnv::Get();
  MemSystemModel model;
  EngineConfig config;
  config.mode = EngineMode::kPmemAware;
  config.threads = 8;
  SsbEngine engine(&env.db(), &model, config);
  ASSERT_TRUE(engine.Prepare().ok());
  EXPECT_EQ(engine.Ingest(env.db().lineorder.data(), 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Recover().status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace pmemolap
