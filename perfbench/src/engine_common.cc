#include "engine_common.h"

#include <algorithm>
#include <thread>

#include "engine/timer.h"

namespace perfbench {

using pmemolap::Result;
using pmemolap::Status;
namespace ssb = pmemolap::ssb;

pmemolap::EngineConfig BaseEngineConfig() {
  pmemolap::EngineConfig config;
  config.mode = pmemolap::EngineMode::kPmemAware;
  config.media = pmemolap::Media::kPmem;
  config.columnar = true;
  config.vectorized = true;
  config.executor = pmemolap::ExecutorKind::kMorselStealing;
  config.threads = kHostThreads;
  config.project_to_sf = kProjectSf;
  return config;
}

Status CheckHostThreads(int pool_threads) {
  const unsigned nproc = std::thread::hardware_concurrency();
  if (nproc != 0 && pool_threads > static_cast<int>(nproc)) {
    return Status::FailedPrecondition(
        "engine pools would spawn " + std::to_string(pool_threads) +
        " host threads on a machine with nproc = " + std::to_string(nproc));
  }
  return Status::OK();
}

Result<ssb::Database> GenerateDatabase(double sf, uint64_t seed,
                                       double* seconds) {
  ScopedSpan span("ssb.dbgen");
  const Clock::time_point start = Clock::now();
  Result<ssb::Database> db = ssb::Generate({.scale_factor = sf, .seed = seed});
  if (seconds != nullptr) *seconds = SecondsSince(start);
  return db;
}

void ReferenceBook::Compute(const ssb::Database& db, std::vector<Key> wanted) {
  std::sort(wanted.begin(), wanted.end(), [](const Key& a, const Key& b) {
    return std::tie(std::get<1>(a), std::get<2>(a), std::get<0>(a)) <
           std::tie(std::get<1>(b), std::get<2>(b), std::get<0>(b));
  });
  // Full-table keys read the database itself; only windows need a copy.
  const ssb::ReferenceExecutor full(&db);
  std::vector<Key> windows;
  for (const Key& key : wanted) {
    if (std::get<1>(key) == 0 && std::get<2>(key) >= db.lineorder.size()) {
      ScopedSpan span("ssb.reference");
      expected_[key] =
          full.Execute(static_cast<ssb::QueryId>(std::get<0>(key)));
    } else {
      windows.push_back(key);
    }
  }
  if (windows.empty()) return;
  ssb::Database slice;
  slice.date = db.date;
  slice.customer = db.customer;
  slice.supplier = db.supplier;
  slice.part = db.part;
  const ssb::ReferenceExecutor reference(&slice);
  std::pair<uint64_t, uint64_t> loaded{~uint64_t{0}, ~uint64_t{0}};
  for (const Key& key : windows) {
    if (expected_.count(key) > 0) continue;
    const std::pair<uint64_t, uint64_t> range{std::get<1>(key),
                                              std::get<2>(key)};
    if (range != loaded) {
      const auto first = db.lineorder.begin();
      const uint64_t end = std::min<uint64_t>(range.second, db.lineorder.size());
      slice.lineorder.assign(first + static_cast<ptrdiff_t>(range.first),
                             first + static_cast<ptrdiff_t>(end));
      loaded = range;
    }
    ScopedSpan span("ssb.reference");
    expected_[key] =
        reference.Execute(static_cast<ssb::QueryId>(std::get<0>(key)));
  }
}

bool ReferenceBook::Matches(const Key& key,
                            const ssb::QueryOutput& output) const {
  auto it = expected_.find(key);
  return it != expected_.end() && it->second == output;
}

namespace {

/// Groups a profile label / phase key into the reported phase families.
const char* PhaseFamily(const std::string& label) {
  if (label.starts_with("scan")) return "scan";
  if (label.starts_with("probe")) return "probe";
  if (label.starts_with("materialize")) return "materialize";
  if (label == "aggregate") return "aggregate";
  if (label == "intermediate") return "intermediate";
  if (label == "cpu") return "cpu";
  return nullptr;
}

}  // namespace

void ModeledLedger::Add(const pmemolap::SsbEngine::QueryRun& run,
                        ModeledDigest* digest) {
  seconds_.push_back(run.seconds);
  cpu_.tuples_scanned += run.cpu.tuples_scanned;
  cpu_.probes += run.cpu.probes;
  cpu_.agg_updates += run.cpu.agg_updates;
  morsels_ += run.progress.units_total;
  digest->Add(run.seconds);
  digest->Add(static_cast<uint64_t>(run.output.Checksum()));
  digest->Add(run.cpu.tuples_scanned);
  digest->Add(run.cpu.probes);
  digest->Add(run.cpu.agg_updates);
  digest->Add(run.progress.units_total);
  for (const auto& [label, seconds] : run.phase_seconds) {
    digest->Add(label);
    digest->Add(seconds);
    const char* family = PhaseFamily(label);
    // An unknown phase still counts, under its own name, so a new phase
    // label shows up in the digest and the notes instead of vanishing.
    phase_[family != nullptr ? family : label] += seconds;
  }
  for (const pmemolap::TrafficRecord& record : run.profile.records()) {
    const int medium = static_cast<int>(record.media);
    const int dir = record.op == pmemolap::OpType::kRead ? 0 : 1;
    bytes_[medium][dir] += static_cast<double>(record.bytes);
    digest->Add(record.bytes);
  }
}

void ModeledLedger::Report(perfbench::Report* report) const {
  report->Set("engine.tuples_scanned",
              static_cast<double>(cpu_.tuples_scanned), "count");
  report->Set("engine.probes", static_cast<double>(cpu_.probes), "count");
  report->Set("engine.agg_updates", static_cast<double>(cpu_.agg_updates),
              "count");
  report->Set("exec.morsels_per_query",
              seconds_.empty() ? 0.0
                               : static_cast<double>(morsels_) /
                                     static_cast<double>(seconds_.size()),
              "count");
  for (const auto& [family, seconds] : phase_) {
    report->Set("engine.modeled_phase_s." + family, seconds, "s");
  }
  const char* media[3] = {"pmem", "dram", "ssd"};  // pmemolap::Media order
  for (int m = 0; m < 3; ++m) {
    report->Set(std::string("engine.bytes.") + media[m] + ".read",
                bytes_[m][0], "B");
    report->Set(std::string("engine.bytes.") + media[m] + ".write",
                bytes_[m][1], "B");
  }
}

void HostLedger::Report(perfbench::Report* report) const {
  for (const auto& [flight, samples] : flight_ms) {
    report->Set("engine.execute_ms.flight" + std::to_string(flight),
                Median(samples), "ms");
  }
  report->Set("memsys.price_us", Median(price_us), "us");
  report->Set("exec.cpu_util",
              wall_thread_seconds > 0.0 ? cpu_seconds / wall_thread_seconds
                                        : 0.0,
              "ratio");
  report->Set("exec.steal_ratio",
              units_executed > 0 ? static_cast<double>(units_stolen) /
                                       static_cast<double>(units_executed)
                                 : 0.0,
              "ratio");
}

Result<pmemolap::SsbEngine::QueryRun> TimedExecute(
    const pmemolap::SsbEngine& engine, const pmemolap::MemSystemModel& model,
    ssb::QueryId query, const pmemolap::qos::QueryOptions& options,
    uint64_t query_id, PhaseSamples* phase, HostLedger* ledger) {
  const double cpu_start = ledger != nullptr ? ProcessCpuSeconds() : 0.0;
  const Clock::time_point start = Clock::now();
  Result<pmemolap::SsbEngine::QueryRun> run = [&] {
    ScopedSpan span("engine.execute", query_id);
    return engine.Execute(query, options);
  }();
  const double wall = SecondsSince(start);
  if (phase != nullptr) {
    phase->op_ms.push_back(1e3 * wall);
    phase->busy_seconds += wall;
  }
  if (ledger == nullptr || !run.ok()) return run;

  ledger->cpu_seconds += ProcessCpuSeconds() - cpu_start;
  ledger->wall_thread_seconds += wall * engine.config().threads;
  ledger->flight_ms[ssb::FlightOf(query)].push_back(1e3 * wall);
  ledger->units_executed += run->progress.units_executed;
  ledger->units_stolen += run->progress.units_stolen;
  const pmemolap::QueryTimer timer(&model, engine.config().timer);
  const Clock::time_point price_start = Clock::now();
  {
    ScopedSpan span("memsys.price", query_id);
    const double seconds = timer.EstimateSeconds(
        run->profile, run->cpu, engine.config().threads,
        engine.config().pinning);
    // Keeps the pricing call from being optimized away.
    if (seconds < 0.0) ledger->price_us.push_back(-1.0);
  }
  ledger->price_us.push_back(1e6 * SecondsSince(price_start));
  return run;
}

}  // namespace perfbench
