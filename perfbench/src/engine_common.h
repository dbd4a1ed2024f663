// Engine-side helpers shared by the three SsbEngine workloads: the base
// configuration, the host-thread guard, result checking against
// ssb::ReferenceExecutor, and the two ledgers a query run feeds — the
// modeled ledger (exact counts and modeled seconds of the fixed seeded
// pass, folded into the digest) and the host ledger (wall-clock samples).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "harness.h"
#include "ssb/dbgen.h"
#include "ssb/reference.h"

namespace perfbench {

/// The paper's PMEM-aware engine on kHostThreads workers, projected to
/// sf kProjectSf, morsel-stealing executor, default placement.
pmemolap::EngineConfig BaseEngineConfig();

/// Refuses a run whose engine pools together would spawn more host
/// threads than the machine has.
pmemolap::Status CheckHostThreads(int pool_threads);

/// Times ssb::Generate under an "ssb.dbgen" span.
pmemolap::Result<pmemolap::ssb::Database> GenerateDatabase(double sf,
                                                           uint64_t seed,
                                                           double* seconds);

/// Expected outputs keyed by (query, first tuple, end tuple), computed by
/// ssb::ReferenceExecutor over a copy of the database whose fact table
/// holds exactly that tuple range — a scan window, or a durable snapshot's
/// committed prefix.
class ReferenceBook {
 public:
  using Key = std::tuple<int, uint64_t, uint64_t>;

  /// Computes the reference for every (query, window) in `wanted`,
  /// copying the dimensions once and each distinct fact range once.
  void Compute(const pmemolap::ssb::Database& db, std::vector<Key> wanted);

  /// True when `output` matches the expected result of `key`; a key that
  /// was never computed is a harness bug and never matches.
  bool Matches(const Key& key, const pmemolap::ssb::QueryOutput& output) const;

 private:
  std::map<Key, pmemolap::ssb::QueryOutput> expected_;
};

/// Exact counts and modeled seconds of the fixed seeded pass.
class ModeledLedger {
 public:
  void Add(const pmemolap::SsbEngine::QueryRun& run, ModeledDigest* digest);

  const std::vector<double>& seconds() const { return seconds_; }
  /// Writes the engine.* count, phase and byte metrics.
  void Report(perfbench::Report* report) const;

 private:
  std::vector<double> seconds_;
  pmemolap::CpuWork cpu_;
  uint64_t morsels_ = 0;
  std::map<std::string, double> phase_;
  double bytes_[3][2] = {{0, 0}, {0, 0}, {0, 0}};
};

/// Wall-clock samples of timed Execute calls.
struct HostLedger {
  std::map<int, std::vector<double>> flight_ms;
  std::vector<double> price_us;
  double cpu_seconds = 0.0;
  double wall_thread_seconds = 0.0;  ///< wall x pool threads
  uint64_t units_executed = 0;
  uint64_t units_stolen = 0;

  /// Writes engine.execute_ms.*, exec.* and memsys.price_us.
  void Report(perfbench::Report* report) const;
};

/// One timed Execute under an "engine.execute" span. When `ledger` is
/// non-null the call also gathers the traced-run layer facts: process CPU
/// time, morsel steals and the cost of pricing the run's profile once
/// more through QueryTimer::EstimateSeconds.
pmemolap::Result<pmemolap::SsbEngine::QueryRun> TimedExecute(
    const pmemolap::SsbEngine& engine, const pmemolap::MemSystemModel& model,
    pmemolap::ssb::QueryId query, const pmemolap::qos::QueryOptions& options,
    uint64_t query_id, PhaseSamples* phase, HostLedger* ledger);

}  // namespace perfbench
