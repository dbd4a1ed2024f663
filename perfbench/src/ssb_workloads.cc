// ssb-raw and ssb-tiered-encoded: one closed-loop client over a prepared
// SsbEngine at sf 1.
//
// ssb-raw runs the 13 SSB queries over the whole fact table, round after
// round in a seeded order. The data fits in memory and every storage mode
// is off, so the time goes to exec and the raw vectorized kernels.
//
// ssb-tiered-encoded scans the encoded column store through the
// TierManager's closed loop. Each query covers one of 32 fact segments;
// segments are drawn Zipf(0.8) by rank, and the ranks are shuffled over
// the address space, so only the heat loop (not address order) can find
// the hot ones. The first kWarmup quanta converge the loop unmeasured.
#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "common/zipf.h"
#include "engine_common.h"
#include "ssb/encoded_column_store.h"
#include "tiering/tier_manager.h"
#include "workloads.h"

namespace perfbench {

using pmemolap::Result;
using pmemolap::Rng;
using pmemolap::SsbEngine;
using pmemolap::Status;
namespace ssb = pmemolap::ssb;
namespace tiering = pmemolap::tiering;

namespace {

constexpr double kSsbSf = 1.0;
/// Setup reps per run: the encoded Prepare takes ~10 s, so the tiered
/// workload affords fewer.
constexpr int kRawSetupReps = 5;
constexpr int kTieredSetupReps = 3;
constexpr uint64_t kSegments = 32;
constexpr size_t kWarmup = 26;
constexpr size_t kMeasured = 208;  // 16 rounds of the 13 queries

/// One query of the closed loop: the whole table or one segment.
struct Op {
  ssb::QueryId query{};
  uint64_t begin = 0;
  uint64_t end = pmemolap::qos::kScanToEnd;
};

/// The seeded operation stream. Every block of 13 operations holds each
/// SSB query once, in a seeded order; tiered streams add a Zipf(0.8)
/// segment per operation.
class OpStream {
 public:
  OpStream(uint64_t seed, uint64_t fact_rows, bool segmented)
      : rng_(seed ^ 0x55B0'0A11ULL),
        zipf_(kSegments, 0.8),
        segment_tuples_(fact_rows / kSegments),
        segmented_(segmented) {
    // Rank r of the Zipf draw lands on segment rank_to_segment_[r].
    Rng shuffle(seed ^ 0x715E'0000ULL);
    for (uint64_t i = 0; i < kSegments; ++i) rank_to_segment_.push_back(i);
    for (uint64_t i = kSegments - 1; i > 0; --i) {
      std::swap(rank_to_segment_[i], rank_to_segment_[shuffle.NextBelow(i + 1)]);
    }
  }

  Op Next() {
    if (block_.empty()) {
      block_ = ssb::AllQueries();
      for (size_t i = block_.size() - 1; i > 0; --i) {
        std::swap(block_[i], block_[rng_.NextBelow(i + 1)]);
      }
    }
    Op op;
    op.query = block_.back();
    block_.pop_back();
    if (segmented_) {
      const uint64_t segment = rank_to_segment_[zipf_.Sample(rng_)];
      op.begin = segment * segment_tuples_;
      op.end = op.begin + segment_tuples_;
    }
    return op;
  }

  /// Every (query, window) the stream can produce.
  std::vector<ReferenceBook::Key> AllKeys() const {
    std::vector<ReferenceBook::Key> keys;
    for (ssb::QueryId query : ssb::AllQueries()) {
      if (!segmented_) {
        keys.emplace_back(static_cast<int>(query), 0, pmemolap::qos::kScanToEnd);
        continue;
      }
      for (uint64_t s = 0; s < kSegments; ++s) {
        keys.emplace_back(static_cast<int>(query), s * segment_tuples_,
                          (s + 1) * segment_tuples_);
      }
    }
    return keys;
  }

 private:
  Rng rng_;
  pmemolap::ZipfSampler zipf_;
  uint64_t segment_tuples_;
  bool segmented_;
  std::vector<uint64_t> rank_to_segment_;
  std::vector<ssb::QueryId> block_;
};

/// bench_tiering's larger-than-memory budgets: 10% of the row image fits
/// in DRAM, 30% in PMEM, the cold 60% lives on the modeled SSD.
tiering::TieringConfig TierBudgets(uint64_t fact_rows) {
  const uint64_t table_bytes = fact_rows * sizeof(ssb::LineorderRow);
  tiering::TieringConfig config;
  config.policy = tiering::TierPolicy::kClosedLoop;
  // bench_tiering runs sf 0.05 in 1024-tuple extents (293 of them); the
  // same extent count at sf 1 keeps its convergence and migration cap.
  config.extent_tuples = 20480;
  config.dram_budget_bytes = table_bytes / 10;
  config.pmem_budget_bytes = 3 * table_bytes / 10;
  config.decay = 0.98;
  config.hysteresis_quanta = 3;
  config.incumbent_bonus = 1.5;
  config.migration_budget_bytes =
      16 * config.extent_tuples * sizeof(ssb::LineorderRow);
  return config;
}

/// One prepared engine and everything it borrows.
struct Stack {
  std::unique_ptr<ssb::Database> db;
  std::unique_ptr<tiering::TierManager> tiers;
  std::unique_ptr<SsbEngine> engine;
};

/// Modeled facts of one fixed pass over the first kWarmup + kMeasured
/// operations (ssb-raw: one 13-query round).
struct Pass {
  ModeledDigest digest;
  ModeledLedger ledger;
  std::map<ssb::QueryId, double> raw_seconds;  ///< ssb-raw: per query
  double migrations = 0.0;
  double dram_tuples = 0.0;
  double ssd_tuples = 0.0;
  double scanned_tuples = 0.0;
};

class SsbWorkload {
 public:
  SsbWorkload(const Args& args, bool tiered) : args_(args), tiered_(tiered) {}

  Result<Outcome> Run();

 private:
  pmemolap::EngineConfig Config() const {
    pmemolap::EngineConfig config = BaseEngineConfig();
    if (tiered_) {
      config.encoding = true;
      // bench_tiering's placement: random-access structures in DRAM, the
      // fact scan priced by the tier placement.
      config.index_media = pmemolap::Media::kDram;
      config.intermediate_media = pmemolap::Media::kDram;
    }
    return config;
  }

  /// dbgen + Prepare from scratch; returns the setup seconds.
  Result<double> Setup(Stack* stack);
  /// The fixed seeded pass on a freshly prepared stack.
  void RunPass(const Stack& stack, Pass* pass);
  /// Timed closed loop until `seconds` elapse (whole rounds, at least
  /// kMinSamples operations), continuing `stream`.
  void RunLoop(const Stack& stack, OpStream* stream, double seconds,
               PhaseSamples* phase, HostLedger* ledger);
  void Check(const Op& op, const Result<SsbEngine::QueryRun>& run);

  const Args& args_;
  const bool tiered_;
  pmemolap::MemSystemModel model_;
  ReferenceBook book_;
  Outcome out_;
  Pass first_pass_;
  std::vector<double> dbgen_s_, prepare_s_, setup_s_;
  uint64_t next_query_id_ = 1;
};

Result<double> SsbWorkload::Setup(Stack* stack) {
  stack->engine.reset();
  stack->tiers.reset();
  stack->db.reset();
  ScopedSpan span("bench.setup");
  const Clock::time_point start = Clock::now();
  double dbgen_s = 0.0;
  Result<ssb::Database> db = GenerateDatabase(kSsbSf, args_.seed, &dbgen_s);
  if (!db.ok()) return db.status();
  stack->db = std::make_unique<ssb::Database>(std::move(db).value());
  pmemolap::EngineConfig config = Config();
  if (tiered_) {
    stack->tiers = std::make_unique<tiering::TierManager>(
        &model_, TierBudgets(stack->db->lineorder.size()));
    config.tiering = stack->tiers.get();
  }
  stack->engine =
      std::make_unique<SsbEngine>(stack->db.get(), &model_, config);
  const Clock::time_point prepare_start = Clock::now();
  {
    ScopedSpan prepare("engine.prepare");
    PMEMOLAP_RETURN_NOT_OK(stack->engine->Prepare());
  }
  dbgen_s_.push_back(dbgen_s);
  prepare_s_.push_back(SecondsSince(prepare_start));
  return SecondsSince(start);
}

void SsbWorkload::Check(const Op& op, const Result<SsbEngine::QueryRun>& run) {
  ++out_.attempted;
  if (!run.ok()) {
    ++out_.failed;
    out_.Note("execute failed: " + run.status().ToString());
    return;
  }
  if (!book_.Matches({static_cast<int>(op.query), op.begin, op.end},
                     run->output)) {
    ++out_.incorrect;
    out_.Note("incorrect result: " + ssb::QueryName(op.query));
  }
}

void SsbWorkload::RunPass(const Stack& stack, Pass* pass) {
  ScopedSpan span("bench.modeled_pass");
  OpStream stream(args_.seed, stack.db->lineorder.size(), tiered_);
  const size_t ops = tiered_ ? kWarmup + kMeasured : ssb::kNumQueries;
  size_t log_mark = 0;
  for (size_t i = 0; i < ops; ++i) {
    const Op op = stream.Next();
    const bool measured = !tiered_ || i >= kWarmup;
    if (tiered_ && i == kWarmup) {
      ScopedSpan log_span("tiering.actuator_log");
      log_mark = stack.tiers->actuator_log().size();
    }
    if (tiered_ && measured) {
      ScopedSpan snap("tiering.snapshot");
      const tiering::TieringSnapshot::TupleShare share =
          stack.tiers->snapshot().SplitTuples(op.begin, op.end);
      pass->dram_tuples += static_cast<double>(share.dram);
      pass->ssd_tuples += static_cast<double>(share.ssd);
      pass->scanned_tuples += static_cast<double>(share.total());
    }
    pmemolap::qos::QueryOptions options;
    options.scan_begin = op.begin;
    options.scan_end = op.end;
    const Result<SsbEngine::QueryRun> run = TimedExecute(
        *stack.engine, model_, op.query, options, next_query_id_++, nullptr,
        nullptr);
    Check(op, run);
    if (!run.ok() || !measured) continue;
    pass->ledger.Add(*run, &pass->digest);
    pass->raw_seconds[op.query] = run->seconds;
  }
  if (tiered_) {
    ScopedSpan log_span("tiering.actuator_log");
    const std::vector<std::string> log = stack.tiers->actuator_log();
    for (size_t i = log_mark; i < log.size(); ++i) {
      pass->digest.Add(log[i]);
      if (log[i].find("migrate e") != std::string::npos) ++pass->migrations;
    }
  }
}

void SsbWorkload::RunLoop(const Stack& stack, OpStream* stream,
                          double seconds, PhaseSamples* phase,
                          HostLedger* ledger) {
  ScopedSpan span("bench.loop");
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < seconds || phase->op_ms.size() < kMinSamples) {
    for (int i = 0; i < ssb::kNumQueries; ++i) {
      const Op op = stream->Next();
      pmemolap::qos::QueryOptions options;
      options.scan_begin = op.begin;
      options.scan_end = op.end;
      const Result<SsbEngine::QueryRun> run = TimedExecute(
          *stack.engine, model_, op.query, options, next_query_id_++, phase,
          ledger);
      Check(op, run);
      // Full-table raw queries carry no placement or controller state, so
      // every repetition must price exactly like the modeled pass.
      if (run.ok() && !tiered_ &&
          run->seconds != first_pass_.raw_seconds.at(op.query)) {
        out_.nondeterministic = true;
        out_.Note("modeled seconds drifted on " + ssb::QueryName(op.query));
      }
    }
  }
}

Result<Outcome> SsbWorkload::Run() {
  PMEMOLAP_RETURN_NOT_OK(CheckHostThreads(Config().threads));
  Stack stack;
  const int setup_reps = tiered_ ? kTieredSetupReps : kRawSetupReps;
  for (int rep = 0; rep < setup_reps; ++rep) {
    Result<double> setup = Setup(&stack);
    if (!setup.ok()) return setup.status();
    setup_s_.push_back(*setup);
    if (rep == 0) {
      OpStream keys(args_.seed, stack.db->lineorder.size(), tiered_);
      book_.Compute(*stack.db, keys.AllKeys());
    }
    Pass pass;
    RunPass(stack, &pass);
    if (rep == 0) {
      first_pass_ = std::move(pass);
    } else if (pass.digest.value() != first_pass_.digest.value()) {
      out_.nondeterministic = true;
      out_.Note("setup rep " + std::to_string(rep) +
                " modeled pass digest " + pass.digest.Hex() + " != " +
                first_pass_.digest.Hex());
    }
  }
  out_.digest = first_pass_.digest;

  // The loop continues the operation stream past the modeled pass.
  OpStream stream(args_.seed, stack.db->lineorder.size(), tiered_);
  const size_t skip = tiered_ ? kWarmup + kMeasured : ssb::kNumQueries;
  for (size_t i = 0; i < skip; ++i) stream.Next();

  Tracer& tracer = GlobalTracer();
  const bool trace = tracer.enabled();
  PhaseSamples untraced;
  tracer.set_enabled(false);
  RunLoop(stack, &stream, trace ? args_.seconds / 2 : args_.seconds,
          &untraced, nullptr);
  tracer.set_enabled(trace);

  Report& r = out_.metrics;
  r.Set("setup_s", Median(setup_s_), "s");
  ReportOps(untraced, &r);
  r.Set("modeled_s_geomean", Geomean(first_pass_.ledger.seconds()), "s");
  out_.Note("host samples: " + std::to_string(untraced.op_ms.size()) +
            " Execute calls (op_ms_p90 has " +
            std::to_string(untraced.op_ms.size() / 10) + " beyond it); " +
            std::to_string(setup_reps) + " setup reps");
  if (!trace) return std::move(out_);

  PhaseSamples traced;
  HostLedger ledger;
  RunLoop(stack, &stream, args_.seconds / 2, &traced, &ledger);
  DefaultLayerMetrics(&r);
  r.Set("ssb.dbgen_s", Median(dbgen_s_), "s");
  r.Set("engine.prepare_s", Median(prepare_s_), "s");
  first_pass_.ledger.Report(&r);
  ledger.Report(&r);
  r.Set("trace.overhead_ratio", OverheadRatio(untraced, traced), "ratio");
  if (tiered_) {
    r.Set("tiering.migrations", first_pass_.migrations, "count");
    r.Set("tiering.scan_share.dram",
          first_pass_.dram_tuples / first_pass_.scanned_tuples, "ratio");
    r.Set("tiering.scan_share.ssd",
          first_pass_.ssd_tuples / first_pass_.scanned_tuples, "ratio");
    // The engine encodes inside Prepare; build the same store directly to
    // see how much of setup_s the encoder is.
    const ssb::ColumnStore columns(stack.db->lineorder);
    const Clock::time_point start = Clock::now();
    std::unique_ptr<ssb::EncodedColumnStore> encoded;
    {
      ScopedSpan span("encoding.encode");
      encoded = std::make_unique<ssb::EncodedColumnStore>(columns);
    }
    r.Set("encoding.encode_s", SecondsSince(start), "s");
    r.Set("encoding.compression_ratio",
          static_cast<double>(encoded->TotalRawBytes()) /
              static_cast<double>(encoded->TotalEncodedBytes()),
          "ratio");
  }
  AddSelfTimes(&r);
  return std::move(out_);
}

}  // namespace

Result<Outcome> RunSsbRaw(const Args& args) {
  return SsbWorkload(args, /*tiered=*/false).Run();
}

Result<Outcome> RunSsbTieredEncoded(const Args& args) {
  return SsbWorkload(args, /*tiered=*/true).Run();
}

}  // namespace perfbench
