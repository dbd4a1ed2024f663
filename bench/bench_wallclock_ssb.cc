// Wall-clock SSB: real host execution time of the 13 queries on both
// executors — unlike the figure benches, which report the *modeled* PMEM
// runtime, this measures what the host CPU actually spends executing the
// queries functionally.
//
//   executors: serial | morsel-stealing (persistent pool), both on the
//              vectorized kernels (columnar selection vectors + batched
//              probes + flat aggregation)
//
// Every run is verified against ssb::ReferenceExecutor, including a
// moderate-fault-preset pass through the same morsel dispatch. The
// headline executor speedup is morsel over serial: the geomean over the
// 13 queries of best-of-reps times; the per-query best, median and
// min-max over reps go to BENCH_wallclock_ssb.json.
//
// At the smoke size a socket's fact range is less than one morsel, so
// the morsel executor has almost nothing to steal: the smoke speedup
// (and its gated baseline) bounds the executor's gain from below only.
// Run at sf >= 1 to measure it.
//
// Flags: --smoke (sf 0.02, 1 rep — the CI configuration), --sf=<double>,
//        --threads=<int>, --morsel=<tuples>, --reps=<int>.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "engine/engine.h"
#include "fault/fault_domain.h"
#include "ssb/reference.h"

using namespace pmemolap;
using namespace pmemolap::bench;
using ssb::QueryId;

namespace {

struct Mode {
  const char* name;
  ExecutorKind executor;
};

constexpr Mode kModes[] = {
    {"serial", ExecutorKind::kSerial},
    {"morsel", ExecutorKind::kMorselStealing},
};
constexpr const char* kContender = "morsel";
/// Same kernels, other executor: isolates the executor effect.
constexpr const char* kExecutorBaseline = "serial";

/// Wall-clock spread of one query in one mode over the reps.
struct Timing {
  double best = 0.0;  ///< min over reps: the headline figure
  double median = 0.0;
  double max = 0.0;
};

/// Times `reps` runs of `query`; false if any run fails. The first rep's
/// output is checked against the reference (clearing `*verified`).
bool TimeQuery(const SsbEngine& engine, QueryId query, int reps,
               const ssb::ReferenceExecutor& reference, bool* verified,
               Timing* timing) {
  std::vector<double> ms;
  for (int rep = 0; rep < reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    auto run = engine.Execute(query);
    auto stop = std::chrono::steady_clock::now();
    if (!run.ok()) return false;
    if (rep == 0 && run->output != reference.Execute(query)) {
      *verified = false;
    }
    ms.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
  }
  std::sort(ms.begin(), ms.end());
  timing->best = ms.front();
  timing->median = ms[ms.size() / 2];
  timing->max = ms.back();
  return true;
}

bool FaultMorselCheck(const ssb::Database& db,
                      const ssb::ReferenceExecutor& reference, int threads) {
  FaultInjector injector(FaultSpec::Preset(2));  // moderate
  injector.AdvanceTo(5.0);
  MemSystemModel model(injector.Degrade(MemSystemConfig()));
  PmemSpace space(model.config().topology);
  injector.Arm(&space);
  FaultDomain domain;
  domain.space = &space;
  domain.injector = &injector;

  EngineConfig config;
  config.mode = EngineMode::kPmemAware;
  config.media = Media::kPmem;
  config.threads = threads;
  config.executor = ExecutorKind::kMorselStealing;
  config.fault = &domain;
  SsbEngine engine(&db, &model, config);
  if (!engine.Prepare().ok()) return false;
  for (QueryId query : ssb::AllQueries()) {
    auto run = engine.Execute(query);
    if (!run.ok() || run->output != reference.Execute(query)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double sf = 0.2;
  int reps = 3;
  int threads = std::max(
      2, std::min(8, static_cast<int>(std::thread::hardware_concurrency())));
  uint64_t morsel_tuples = kDefaultMorselTuples;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      sf = 0.02;
      reps = 1;
    } else if (std::strncmp(argv[i], "--sf=", 5) == 0) {
      sf = std::atof(argv[i] + 5);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--morsel=", 9) == 0) {
      morsel_tuples = static_cast<uint64_t>(std::atoll(argv[i] + 9));
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
    } else {
      std::printf("unknown flag %s\n", argv[i]);
      return 1;
    }
  }
  reps = std::max(reps, 1);

  PrintHeader("Wall-clock SSB: serial vs morsel-stealing executor",
              "execution layer (morsel-driven pool + vectorized kernels)",
              "13/13 verified in both modes; executor speedup reported");
  std::printf("sf %.3g, %d threads, %llu-tuple morsels, best of %d reps\n\n",
              sf, threads, static_cast<unsigned long long>(morsel_tuples),
              reps);

  auto db = ssb::Generate({.scale_factor = sf, .seed = 11});
  if (!db.ok()) {
    std::printf("dbgen failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  MemSystemModel model;
  ssb::ReferenceExecutor reference(&*db);

  std::vector<std::unique_ptr<SsbEngine>> engines;
  for (const Mode& mode : kModes) {
    EngineConfig config;
    config.mode = EngineMode::kPmemAware;
    config.media = Media::kPmem;
    config.threads = threads;
    config.executor = mode.executor;
    config.morsel_tuples = morsel_tuples;
    engines.push_back(std::make_unique<SsbEngine>(&*db, &model, config));
    if (!engines.back()->Prepare().ok()) {
      std::printf("Prepare failed for %s\n", mode.name);
      return 1;
    }
  }

  std::vector<std::string> columns = {"Query"};
  for (const Mode& mode : kModes) columns.push_back(mode.name);
  columns.push_back("Executor x");
  columns.push_back("Results");
  TablePrinter table(columns);

  // queries x modes -> wall-clock spread over the reps.
  std::map<std::string, std::map<std::string, Timing>> timings;
  bool all_verified = true;
  std::vector<double> executor_speedups;
  for (QueryId query : ssb::AllQueries()) {
    const std::string name = ssb::QueryName(query);
    std::vector<std::string> row = {name};
    bool verified = true;
    for (size_t m = 0; m < std::size(kModes); ++m) {
      Timing timing;
      if (!TimeQuery(*engines[m], query, reps, reference, &verified,
                     &timing)) {
        std::printf("%s failed on %s\n", kModes[m].name, name.c_str());
        return 1;
      }
      timings[name][kModes[m].name] = timing;
      row.push_back(TablePrinter::Cell(timing.best, 2));
    }
    const double contender = timings[name][kContender].best;
    const double executor_speedup =
        timings[name][kExecutorBaseline].best / contender;
    executor_speedups.push_back(executor_speedup);
    all_verified = all_verified && verified;
    row.push_back(TablePrinter::Cell(executor_speedup, 2));
    row.push_back(verified ? "verified" : "MISMATCH");
    table.AddRow(row);
  }
  table.Print();

  const double executor_geomean = GeoMean(executor_speedups);
  std::printf("\ngeomean executor speedup %s vs %s: %.2fx\n", kContender,
              kExecutorBaseline, executor_geomean);

  const bool fault_ok = FaultMorselCheck(*db, reference, threads);
  std::printf("moderate-fault morsel check: %s\n",
              fault_ok ? "verified" : "MISMATCH");

  std::ofstream json("BENCH_wallclock_ssb.json");
  json << "{\n"
       << "  \"bench\": \"wallclock_ssb\",\n"
       << "  \"scale_factor\": " << sf << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"morsel_tuples\": " << morsel_tuples << ",\n"
       << "  \"repetitions\": " << reps << ",\n"
       << "  \"contender\": \"" << kContender << "\",\n"
       << "  \"executor_baseline\": \"" << kExecutorBaseline << "\",\n"
       << "  \"queries\": [\n";
  bool first = true;
  for (const auto& [query, by_mode] : timings) {
    if (!first) json << ",\n";
    first = false;
    json << "    {\"query\": \"" << query << "\"";
    for (const Mode& mode : kModes) {
      const Timing& t = by_mode.at(mode.name);
      json << ", \"" << mode.name << "\": {\"best_ms\": " << t.best
           << ", \"median_ms\": " << t.median << ", \"range_ms\": ["
           << t.best << ", " << t.max << "]}";
    }
    const double contender = by_mode.at(kContender).best;
    json << ", \"executor_speedup\": "
         << by_mode.at(kExecutorBaseline).best / contender << "}";
  }
  json << "\n  ],\n"
       << "  \"executor_geomean_speedup\": " << executor_geomean << ",\n"
       << "  \"all_verified\": " << (all_verified ? "true" : "false") << ",\n"
       << "  \"fault_morsel_verified\": " << (fault_ok ? "true" : "false")
       << "\n}\n";
  json.close();
  std::printf("wrote BENCH_wallclock_ssb.json\n");

  return all_verified && fault_ok ? 0 : 1;
}
