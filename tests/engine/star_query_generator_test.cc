// Generated star queries: a seeded generator emits valid StarQuery values
// beyond the 13 SSB shapes — 1-4 dimension stages in any order, random
// predicates over real attribute and fact-column values, 0-3 group-bys
// and any of the three aggregate forms — and every one must match the
// naive row-at-a-time interpreter (ssb::InterpretStarQuery) on each
// column source: raw columns, encoded columns, a durable snapshot over a
// committed prefix, and guarded row blocks under fault preset 2. Each
// source runs on both executors, which must also agree on the modeled
// seconds. A failing query is shrunk greedily (stages, predicates and
// group-bys dropped while it still fails) and printed with its seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "durability/durable_table.h"
#include "engine/engine.h"
#include "fault/fault_domain.h"
#include "ssb/interpreter.h"

namespace pmemolap {
namespace {

using ssb::Attr;
using ssb::Dimension;
using ssb::LineorderColumn;
using ssb::StarQuery;

/// Generated shapes per column source (four sources, so 2,048 in all).
constexpr int kShapesPerSource = 512;

/// Shared database for the generated-query suites (dbgen at sf 0.01).
const ssb::Database& Db() {
  static const ssb::Database db =
      *ssb::Generate({.scale_factor = 0.01, .seed = 23});
  return db;
}

const MemSystemModel& Model() {
  static const MemSystemModel model;
  return model;
}

/// Emits valid star queries whose predicate bounds and set members are
/// values drawn from real rows, so selectivities span the whole range.
class QueryGenerator {
 public:
  QueryGenerator(const ssb::Database& db, uint64_t seed)
      : db_(db), rng_(seed) {}

  StarQuery Next() {
    StarQuery query;
    const int fact_predicates = Pick({6, 3, 1});
    for (int i = 0; i < fact_predicates; ++i) {
      const auto column = static_cast<LineorderColumn>(
          rng_.NextBelow(ssb::kNumLineorderColumns));
      auto [lo, hi] = SortedPair(FactValue(column), FactValue(column));
      query.fact_predicates.push_back({column, lo, hi});
    }
    std::vector<Dimension> dims = {Dimension::kDate, Dimension::kCustomer,
                                   Dimension::kSupplier, Dimension::kPart};
    for (size_t i = dims.size(); i > 1; --i) {
      std::swap(dims[i - 1], dims[rng_.NextBelow(i)]);
    }
    dims.resize(1 + rng_.NextBelow(dims.size()));
    for (Dimension dim : dims) {
      ssb::DimensionStage stage{dim, {}};
      const int predicates = Pick({4, 5, 2});
      for (int i = 0; i < predicates; ++i) {
        stage.predicates.push_back(Predicate(dim));
      }
      query.stages.push_back(std::move(stage));
    }
    const int group_by = static_cast<int>(rng_.NextBelow(4));
    for (int i = 0; i < group_by; ++i) {
      const Dimension dim = dims[rng_.NextBelow(dims.size())];
      query.group_by.push_back({dim, RandomAttr(dim)});
    }
    query.aggregate.op = static_cast<ssb::Aggregate::Op>(rng_.NextBelow(3));
    query.aggregate.a = static_cast<LineorderColumn>(
        rng_.NextBelow(ssb::kNumLineorderColumns));
    query.aggregate.b = static_cast<LineorderColumn>(
        rng_.NextBelow(ssb::kNumLineorderColumns));
    if (query.aggregate.op == ssb::Aggregate::Op::kProduct) {
      // A product of two wide columns (orderdate squared is ~4e14) summed
      // over the table would overflow int64; scale by a small one, as
      // Q1.x does with discount.
      query.aggregate.b = rng_.NextBool(0.5) ? LineorderColumn::kQuantity
                                             : LineorderColumn::kDiscount;
    }
    return query;
  }

 private:
  /// An index in [0, weights.size()) drawn with the given weights.
  int Pick(std::initializer_list<int> weights) {
    int total = 0;
    for (int w : weights) total += w;
    int draw = static_cast<int>(rng_.NextBelow(static_cast<uint64_t>(total)));
    int index = 0;
    for (int w : weights) {
      if (draw < w) return index;
      draw -= w;
      ++index;
    }
    return index;
  }

  static std::pair<int32_t, int32_t> SortedPair(int32_t a, int32_t b) {
    return {std::min(a, b), std::max(a, b)};
  }

  Attr RandomAttr(Dimension dim) {
    switch (dim) {
      case Dimension::kDate:
        return static_cast<Attr>(rng_.NextBelow(4));
      case Dimension::kCustomer:
      case Dimension::kSupplier:
        return static_cast<Attr>(static_cast<int>(Attr::kRegion) +
                                 rng_.NextBelow(3));
      case Dimension::kPart:
        return static_cast<Attr>(static_cast<int>(Attr::kMfgr) +
                                 rng_.NextBelow(3));
    }
    return Attr::kYear;
  }

  int32_t FactValue(LineorderColumn column) {
    const ssb::LineorderRow& row =
        db_.lineorder[rng_.NextBelow(db_.lineorder.size())];
    return row.*ssb::LineorderField(column);
  }

  /// `attr` of a random row of `dim`.
  int32_t AttrValue(Dimension dim, Attr attr) {
    auto geo = [attr](int region, int nation, int city) {
      if (attr == Attr::kRegion) return region;
      return attr == Attr::kNation ? nation : ssb::CityId(nation, city);
    };
    switch (dim) {
      case Dimension::kDate: {
        const ssb::DateRow& d = db_.date[rng_.NextBelow(db_.date.size())];
        if (attr == Attr::kYear) return d.year;
        if (attr == Attr::kYearMonthNum) return d.yearmonthnum;
        if (attr == Attr::kMonthNumInYear) return d.monthnuminyear;
        return d.weeknuminyear;
      }
      case Dimension::kCustomer: {
        const ssb::CustomerRow& c =
            db_.customer[rng_.NextBelow(db_.customer.size())];
        return geo(c.region, c.nation, c.city);
      }
      case Dimension::kSupplier: {
        const ssb::SupplierRow& s =
            db_.supplier[rng_.NextBelow(db_.supplier.size())];
        return geo(s.region, s.nation, s.city);
      }
      case Dimension::kPart: {
        const ssb::PartRow& p = db_.part[rng_.NextBelow(db_.part.size())];
        if (attr == Attr::kMfgr) return p.mfgr;
        return attr == Attr::kCategory ? p.category_id() : p.brand_id();
      }
    }
    return 0;
  }

  ssb::AttrPredicate Predicate(Dimension dim) {
    const Attr attr = RandomAttr(dim);
    if (rng_.NextBool(0.5)) {
      auto [lo, hi] = SortedPair(AttrValue(dim, attr), AttrValue(dim, attr));
      return {attr, lo, hi, {}};
    }
    ssb::AttrPredicate set{attr, 0, 0, {}};
    const uint64_t members = 1 + rng_.NextBelow(3);
    for (uint64_t i = 0; i < members; ++i) {
      set.values.push_back(AttrValue(dim, attr));
    }
    return set;
  }

  const ssb::Database& db_;
  Rng rng_;
};

/// Greedily drops fact predicates, stages (with the group-bys they
/// feed), stage predicates and group-bys while `fails` still holds.
StarQuery Shrink(StarQuery query,
                 const std::function<bool(const StarQuery&)>& fails) {
  auto try_variant = [&](StarQuery candidate) {
    if (!ssb::Validate(candidate).ok() || !fails(candidate)) return false;
    query = std::move(candidate);
    return true;
  };
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (size_t i = 0; i < query.fact_predicates.size() && !shrunk; ++i) {
      StarQuery c = query;
      c.fact_predicates.erase(c.fact_predicates.begin() +
                              static_cast<ptrdiff_t>(i));
      shrunk = try_variant(std::move(c));
    }
    for (size_t i = 0; i < query.stages.size() && !shrunk; ++i) {
      StarQuery c = query;
      const Dimension dim = c.stages[i].dim;
      c.stages.erase(c.stages.begin() + static_cast<ptrdiff_t>(i));
      std::erase_if(c.group_by,
                    [dim](const ssb::GroupRef& g) { return g.dim == dim; });
      shrunk = try_variant(std::move(c));
    }
    for (size_t i = 0; i < query.stages.size() && !shrunk; ++i) {
      for (size_t p = 0; p < query.stages[i].predicates.size() && !shrunk;
           ++p) {
        StarQuery c = query;
        auto& predicates = c.stages[i].predicates;
        predicates.erase(predicates.begin() + static_cast<ptrdiff_t>(p));
        shrunk = try_variant(std::move(c));
      }
    }
    for (size_t i = 0; i < query.group_by.size() && !shrunk; ++i) {
      StarQuery c = query;
      c.group_by.erase(c.group_by.begin() + static_cast<ptrdiff_t>(i));
      shrunk = try_variant(std::move(c));
    }
  }
  return query;
}

/// One source's serial and morsel engines over the same rows, the number
/// of lineorder rows they answer from, and the options to query with.
struct Source {
  std::unique_ptr<SsbEngine> serial;
  std::unique_ptr<SsbEngine> morsel;
  uint64_t rows = 0;
  qos::QueryOptions options;
};

EngineConfig BaseConfig(ExecutorKind executor) {
  EngineConfig config;
  config.mode = EngineMode::kPmemAware;
  config.media = Media::kPmem;
  config.threads = 4;
  config.executor = executor;
  // Small morsels: the sf-0.01 table splits into many stealable units.
  config.morsel_tuples = 4096;
  return config;
}

/// The first mismatch of `query` on `source`, or "" when both executors
/// match the interpreter and each other's modeled seconds.
std::string Mismatch(const Source& source, const StarQuery& query) {
  const ssb::QueryOutput expected =
      ssb::InterpretStarQuery(Db(), query, source.rows);
  Result<SsbEngine::QueryRun> serial =
      source.serial->Execute(query, source.options);
  Result<SsbEngine::QueryRun> morsel =
      source.morsel->Execute(query, source.options);
  if (!serial.ok()) return "serial: " + serial.status().ToString();
  if (!morsel.ok()) return "morsel: " + morsel.status().ToString();
  if (serial->output != expected) return "serial output differs";
  if (morsel->output != expected) return "morsel output differs";
  if (serial->seconds != morsel->seconds) return "modeled seconds differ";
  return "";
}

/// Runs kShapesPerSource generated queries against `source`; reports the
/// first failure shrunk to a minimal query, with its seed.
void RunGenerated(const Source& source, uint64_t base_seed) {
  for (int i = 0; i < kShapesPerSource; ++i) {
    const uint64_t seed = base_seed * 1'000'003 + static_cast<uint64_t>(i);
    const StarQuery query = QueryGenerator(Db(), seed).Next();
    ASSERT_TRUE(ssb::Validate(query).ok()) << query.ToString();
    const std::string mismatch = Mismatch(source, query);
    if (mismatch.empty()) continue;
    const StarQuery minimal = Shrink(query, [&](const StarQuery& q) {
      return !Mismatch(source, q).empty();
    });
    FAIL() << mismatch << " for seed " << seed << "\n  query:   "
           << query.ToString() << "\n  minimal: " << minimal.ToString()
           << "\n  minimal fails with: " << Mismatch(source, minimal);
  }
}

Source ColumnSource(bool encoded) {
  Source source;
  source.rows = Db().lineorder.size();
  for (ExecutorKind executor :
       {ExecutorKind::kSerial, ExecutorKind::kMorselStealing}) {
    EngineConfig config = BaseConfig(executor);
    config.columnar = true;
    config.encoding = encoded;
    auto engine = std::make_unique<SsbEngine>(&Db(), &Model(), config);
    EXPECT_TRUE(engine->Prepare().ok());
    (executor == ExecutorKind::kSerial ? source.serial : source.morsel) =
        std::move(engine);
  }
  return source;
}

TEST(StarQueryGeneratorTest, RawColumnsMatchInterpreter) {
  RunGenerated(ColumnSource(/*encoded=*/false), 1);
}

TEST(StarQueryGeneratorTest, EncodedColumnsMatchInterpreter) {
  RunGenerated(ColumnSource(/*encoded=*/true), 2);
}

TEST(StarQueryGeneratorTest, DurableSnapshotMatchesInterpreter) {
  constexpr int kEpochs = 6;
  constexpr uint64_t kSnapshotEpoch = 4;
  PmemSpace space(Model().config().topology);
  Source source;
  std::vector<std::unique_ptr<DurableTable>> tables;
  const uint64_t total = Db().lineorder.size();
  const uint64_t batch = (total + kEpochs - 1) / kEpochs;
  for (ExecutorKind executor :
       {ExecutorKind::kSerial, ExecutorKind::kMorselStealing}) {
    auto table = DurableTable::Create(&space, nullptr, DurableTable::Options());
    ASSERT_TRUE(table.ok());
    EngineConfig config = BaseConfig(executor);
    config.durable = table->get();
    auto engine = std::make_unique<SsbEngine>(&Db(), &Model(), config);
    ASSERT_TRUE(engine->Prepare().ok());
    for (uint64_t offset = 0; offset < total; offset += batch) {
      ASSERT_TRUE(engine
                      ->Ingest(Db().lineorder.data() + offset,
                               std::min(batch, total - offset))
                      .ok());
    }
    tables.push_back(std::move(*table));
    (executor == ExecutorKind::kSerial ? source.serial : source.morsel) =
        std::move(engine);
  }
  // Pin an older epoch than the latest: the queries see its prefix only.
  source.options.snapshot_epoch = kSnapshotEpoch;
  source.rows = kSnapshotEpoch * batch;
  RunGenerated(source, 3);
}

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

TEST(StarQueryGeneratorTest, GuardedRowBlocksMatchInterpreter) {
  // One fixture per engine: each gets its own armed space and injector.
  FaultFixture serial_fixture(FaultSpec::Preset(2));
  FaultFixture morsel_fixture(FaultSpec::Preset(2));
  Source source;
  source.rows = Db().lineorder.size();
  for (ExecutorKind executor :
       {ExecutorKind::kSerial, ExecutorKind::kMorselStealing}) {
    FaultFixture& fixture = executor == ExecutorKind::kSerial
                                ? serial_fixture
                                : morsel_fixture;
    EngineConfig config = BaseConfig(executor);
    config.fault = &fixture.domain;
    auto engine = std::make_unique<SsbEngine>(&Db(), &fixture.model, config);
    ASSERT_TRUE(engine->Prepare().ok());
    (executor == ExecutorKind::kSerial ? source.serial : source.morsel) =
        std::move(engine);
  }
  RunGenerated(source, 4);
}

}  // namespace
}  // namespace pmemolap
