// ingest-durable: writes beside reads. A DurableTable at sf 0.1 takes
// the fact table in kEpochs crash-consistent ingest epochs; after each
// epoch one closed-loop client runs the 13 SSB queries at the newest
// committed snapshot, costed jointly with that epoch's log and apply
// writes under the bandwidth governor. Recover() closes every pass. The
// query order is fixed: the governor's hysteresis makes modeled seconds
// depend on the order it observes, and the seed already varies the data.
//
// sf 1 would need ~5.8 GB resident (row image, redo log and both
// persistence images), and the scalar durable path takes ~170 ms per
// query at sf 0.25, so this workload runs at sf 0.1. Durable mode takes
// the row image and the scalar path today; the configuration asks for the
// vectorized kernels so a durable path that can use them shows up here.
//
// One pass is fixed work and starts from scratch (dbgen, a fresh table,
// governor and engine), so every pass must reproduce the first pass's
// modeled clock bit for bit. Passes repeat until the run's time is spent.
#include <memory>

#include "core/pmem_space.h"
#include "durability/durable_table.h"
#include "durability/recovery.h"
#include "engine_common.h"
#include "governor/governor.h"
#include "workloads.h"

namespace perfbench {

using pmemolap::Result;
using pmemolap::SsbEngine;
using pmemolap::Status;
namespace ssb = pmemolap::ssb;

namespace {

constexpr double kIngestSf = 0.1;
constexpr int kEpochs = 6;
constexpr int kSetupReps = 5;
/// Passes per timed phase: at least two for the same-seed replay check,
/// three so the p90 over 234 queries sits steadily in the slow tail.
constexpr int kMinPasses = 3;

/// One prepared durable engine and everything it borrows. Members are
/// destroyed in reverse order, the engine first.
struct Stack {
  std::unique_ptr<ssb::Database> db;
  std::unique_ptr<pmemolap::PmemSpace> space;
  std::unique_ptr<pmemolap::DurableTable> table;
  std::unique_ptr<pmemolap::governor::BandwidthGovernor> governor;
  std::unique_ptr<SsbEngine> engine;

  void Reset() {
    engine.reset();
    governor.reset();
    table.reset();
    space.reset();
    db.reset();
  }
};

/// Host and modeled facts of one pass.
struct PassResult {
  ModeledDigest digest;
  ModeledLedger ledger;
  std::vector<double> ingest_ms;
  double recover_s = 0.0;
  double modeled_persist_s = 0.0;
  double modeled_ingest_s = 0.0;
  pmemolap::RecoveryStats recovery;
  double actuations = 0.0;
  double read_workers_cap = 0.0;
};

class IngestWorkload {
 public:
  explicit IngestWorkload(const Args& args) : args_(args) {}
  Result<Outcome> Run();

 private:
  Result<double> Setup(Stack* stack);
  void RunPass(Stack* stack, PhaseSamples* phase, HostLedger* ledger,
               PassResult* pass);
  /// Rows committed through epoch `epoch` (1-based).
  uint64_t PrefixRows(uint64_t rows, int epoch) const {
    return rows * static_cast<uint64_t>(epoch) / kEpochs;
  }

  const Args& args_;
  pmemolap::MemSystemModel model_;
  ReferenceBook book_;
  Outcome out_;
  std::vector<double> dbgen_s_, prepare_s_, setup_s_;
  uint64_t next_query_id_ = 1;
};

Result<double> IngestWorkload::Setup(Stack* stack) {
  stack->Reset();
  ScopedSpan span("bench.setup");
  const Clock::time_point start = Clock::now();
  double dbgen_s = 0.0;
  Result<ssb::Database> db = GenerateDatabase(kIngestSf, args_.seed, &dbgen_s);
  if (!db.ok()) return db.status();
  stack->db = std::make_unique<ssb::Database>(std::move(db).value());

  const uint64_t fact_bytes = stack->db->FactBytes();
  pmemolap::DurableTable::Options options;
  options.capacity_bytes = (fact_bytes / pmemolap::kMiB + 2) * pmemolap::kMiB;
  options.log_bytes = 2 * options.capacity_bytes + 8 * pmemolap::kMiB;
  stack->space =
      std::make_unique<pmemolap::PmemSpace>(model_.config().topology);
  {
    ScopedSpan create("durability.create");
    Result<std::unique_ptr<pmemolap::DurableTable>> table =
        pmemolap::DurableTable::Create(stack->space.get(), nullptr, options);
    if (!table.ok()) return table.status();
    stack->table = std::move(table).value();
  }
  stack->governor =
      std::make_unique<pmemolap::governor::BandwidthGovernor>(&model_);
  pmemolap::EngineConfig config = BaseEngineConfig();
  config.columnar = false;  // durable queries read the row image
  config.governor = stack->governor.get();
  config.durable = stack->table.get();
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

void IngestWorkload::RunPass(Stack* stack, PhaseSamples* phase,
                             HostLedger* ledger, PassResult* pass) {
  ScopedSpan span("bench.pass");
  const uint64_t rows = stack->db->lineorder.size();
  for (int epoch = 1; epoch <= kEpochs; ++epoch) {
    const uint64_t begin = PrefixRows(rows, epoch - 1);
    const uint64_t end = PrefixRows(rows, epoch);
    // Queries after this epoch run beside its writes only.
    stack->table->DrainIngestTraffic();
    ++out_.attempted;
    const Clock::time_point start = Clock::now();
    Result<uint64_t> committed = [&] {
      ScopedSpan ingest("durability.ingest", next_query_id_++);
      return stack->engine->Ingest(stack->db->lineorder.data() + begin,
                                   end - begin);
    }();
    const double wall = SecondsSince(start);
    phase->busy_seconds += wall;
    pass->ingest_ms.push_back(1e3 * wall);
    if (!committed.ok()) {
      ++out_.failed;
      out_.Note("ingest failed: " + committed.status().ToString());
      return;
    }
    pass->digest.Add(*committed);

    for (ssb::QueryId query : ssb::AllQueries()) {
      const Result<SsbEngine::QueryRun> run =
          TimedExecute(*stack->engine, model_, query, pmemolap::qos::QueryOptions(),
                       next_query_id_++, phase, ledger);
      ++out_.attempted;
      if (!run.ok()) {
        ++out_.failed;
        out_.Note("execute failed: " + run.status().ToString());
        continue;
      }
      if (!book_.Matches({static_cast<int>(query), 0, end}, run->output)) {
        ++out_.incorrect;
        out_.Note("incorrect result: " + ssb::QueryName(query) +
                  " at epoch " + std::to_string(epoch));
      }
      pass->ledger.Add(*run, &pass->digest);
    }
  }

  pass->modeled_persist_s = stack->table->modeled_seconds();
  ++out_.attempted;
  const Clock::time_point start = Clock::now();
  Result<pmemolap::RecoveryStats> stats = [&] {
    ScopedSpan recover("durability.recover");
    return stack->engine->Recover();
  }();
  pass->recover_s = SecondsSince(start);
  phase->busy_seconds += pass->recover_s;
  if (!stats.ok()) {
    ++out_.failed;
    out_.Note("recover failed: " + stats.status().ToString());
    return;
  }
  pass->recovery = *stats;
  pass->modeled_ingest_s = stack->table->modeled_seconds();
  pass->digest.Add(pass->modeled_persist_s);
  pass->digest.Add(pass->modeled_ingest_s);
  pass->digest.Add(stats->replayed_bytes);
  pass->digest.Add(stats->modeled_seconds);

  ScopedSpan log_span("governor.actuator_log");
  for (const std::string& line : stack->governor->actuator_log()) {
    pass->digest.Add(line);
    if (line.find(" commit ") != std::string::npos) ++pass->actuations;
  }
  for (int cap : stack->governor->decision().read_workers) {
    pass->read_workers_cap += cap;
  }
}

Result<Outcome> IngestWorkload::Run() {
  PMEMOLAP_RETURN_NOT_OK(CheckHostThreads(BaseEngineConfig().threads));
  Tracer& tracer = GlobalTracer();
  const bool trace = tracer.enabled();
  Stack stack;
  PhaseSamples untraced, traced;
  HostLedger ledger;
  std::vector<PassResult> passes;
  std::vector<double> recover_s;
  double ingest_seconds = 0.0;
  uint64_t ingest_rows = 0;

  // Every pass starts with a setup; top them up to kSetupReps samples.
  while (setup_s_.size() + kMinPasses < kSetupReps) {
    Result<double> setup = Setup(&stack);
    if (!setup.ok()) return setup.status();
    setup_s_.push_back(*setup);
  }
  // Untraced passes first; a traced run spends its second half traced.
  for (int traced_phase = 0; traced_phase <= (trace ? 1 : 0); ++traced_phase) {
    tracer.set_enabled(traced_phase == 1);
    PhaseSamples* phase = traced_phase == 1 ? &traced : &untraced;
    const double budget = trace ? args_.seconds / 2 : args_.seconds;
    const Clock::time_point start = Clock::now();
    int phase_passes = 0;
    while (SecondsSince(start) < budget || phase->op_ms.size() < kMinSamples ||
           (traced_phase == 0 && phase_passes < kMinPasses)) {
      Result<double> setup = Setup(&stack);
      if (!setup.ok()) return setup.status();
      setup_s_.push_back(*setup);
      if (passes.empty()) {
        std::vector<ReferenceBook::Key> keys;
        for (int epoch = 1; epoch <= kEpochs; ++epoch) {
          for (ssb::QueryId query : ssb::AllQueries()) {
            keys.emplace_back(static_cast<int>(query), 0,
                              PrefixRows(stack.db->lineorder.size(), epoch));
          }
        }
        book_.Compute(*stack.db, keys);
      }
      PassResult pass;
      RunPass(&stack, phase, traced_phase == 1 ? &ledger : nullptr, &pass);
      if (!passes.empty() &&
          pass.digest.value() != passes.front().digest.value()) {
        out_.nondeterministic = true;
        out_.Note("pass " + std::to_string(passes.size()) +
                  " modeled digest " + pass.digest.Hex() + " != " +
                  passes.front().digest.Hex());
      }
      for (double ms : pass.ingest_ms) ingest_seconds += 1e-3 * ms;
      ingest_rows += stack.db->lineorder.size();
      recover_s.push_back(pass.recover_s);
      passes.push_back(std::move(pass));
      ++phase_passes;
    }
  }
  tracer.set_enabled(trace);
  const PassResult& first = passes.front();
  out_.digest = first.digest;

  Report& r = out_.metrics;
  r.Set("setup_s", Median(setup_s_), "s");
  ReportOps(untraced, &r);
  r.Set("modeled_s_geomean", Geomean(first.ledger.seconds()), "s");
  out_.Note("host samples: " + std::to_string(untraced.op_ms.size()) +
            " snapshot queries over " + std::to_string(passes.size()) +
            " passes of " + std::to_string(kEpochs) + " epochs; " +
            std::to_string(setup_s_.size()) + " setup reps");
  if (!trace) return std::move(out_);

  DefaultLayerMetrics(&r);
  r.Set("ssb.dbgen_s", Median(dbgen_s_), "s");
  r.Set("engine.prepare_s", Median(prepare_s_), "s");
  first.ledger.Report(&r);
  ledger.Report(&r);
  std::vector<double> ingest_ms;
  for (const PassResult& pass : passes) {
    ingest_ms.insert(ingest_ms.end(), pass.ingest_ms.begin(),
                     pass.ingest_ms.end());
  }
  r.Set("durability.ingest_ms_p50", Median(ingest_ms), "ms");
  r.Set("durability.ingest_rows_per_s",
        static_cast<double>(ingest_rows) / ingest_seconds, "1/s");
  r.Set("durability.modeled_persist_s", first.modeled_persist_s, "s");
  r.Set("durability.modeled_ingest_s", first.modeled_ingest_s, "s");
  r.Set("durability.recover_s", Median(recover_s), "s");
  r.Set("durability.recover_replayed_bytes",
        static_cast<double>(first.recovery.replayed_bytes), "B");
  r.Set("durability.recover_modeled_s", first.recovery.modeled_seconds, "s");
  r.Set("governor.actuations", first.actuations, "count");
  r.Set("governor.read_workers_cap", first.read_workers_cap, "count");
  r.Set("trace.overhead_ratio", OverheadRatio(untraced, traced), "ratio");
  AddSelfTimes(&r);
  return std::move(out_);
}

}  // namespace

Result<Outcome> RunIngestDurable(const Args& args) {
  return IngestWorkload(args).Run();
}

}  // namespace perfbench
