// Shared machinery of the perfbench workloads: arguments, host clocks,
// summary statistics, the metric report, the modeled-clock digest and
// the in-memory span tracer.
//
// Two clocks run through every workload. Host metrics come from
// std::chrono::steady_clock around calls into the library's public API.
// Modeled metrics come out of the library itself (QueryRun::seconds,
// DurableTable::modeled_seconds, service request latencies) and must be
// bit-identical for a given seed: every modeled value and exact count is
// folded into a digest, and a workload fails when two same-seed passes
// disagree.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

/// Host threads every engine pool of every workload may use in total.
inline constexpr int kHostThreads = 4;
/// Scale factor the engine workloads project modeled seconds to.
inline constexpr double kProjectSf = 50.0;
/// Minimum timed operations per phase, so a p90 has ten samples beyond it.
inline constexpr size_t kMinSamples = 100;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Process CPU seconds across all threads (pool workers included).
double ProcessCpuSeconds();
/// Peak resident set of this process, MiB.
double PeakRssMib();

double Median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p);
double Geomean(const std::vector<double>& values);

/// FNV-1a digest of everything the modeled clock produced. Doubles are
/// folded by bit pattern, so any drift in the last ulp changes it.
class ModeledDigest {
 public:
  void Add(double value);
  void Add(uint64_t value);
  void Add(const std::string& value);
  uint64_t value() const { return hash_; }
  std::string Hex() const;

 private:
  void Bytes(const void* data, size_t size);
  uint64_t hash_ = 1469598103934665603ULL;
};

/// Named metrics with units, in insertion order of first definition.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// `{"name": {"value": v, "unit": "u"}, ...}` with full precision.
  std::string MetricsJson() const;
  void Print() const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> entries_;
};

/// In-memory spans around the benchmark's calls into each layer's public
/// API. Single-threaded: every span opens and closes on the main thread
/// (the engine's pool workers run inside an engine.execute span).
class Tracer {
 public:
  struct Span {
    std::string name;   ///< "<layer>.<call>", e.g. "engine.execute"
    std::string layer;  ///< the part of `name` before the first '.'
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;  ///< index of the enclosing span, -1 = root
    uint64_t query_id = 0;  ///< operation sequence number, 0 = none
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span (no-op returning -1 while disabled).
  int64_t Begin(const std::string& name, uint64_t query_id = 0);
  void End(int64_t id);

  /// Per layer: summed span time minus the time child spans cover.
  std::map<std::string, double> SelfSecondsByLayer() const;
  /// Writes one JSON object per span. False on I/O failure.
  bool Write(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

Tracer& GlobalTracer();

/// RAII span on the global tracer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name, uint64_t query_id = 0)
      : id_(GlobalTracer().Begin(name, query_id)) {}
  ~ScopedSpan() { GlobalTracer().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t id_;
};

/// What a workload hands back to main().
struct Outcome {
  Report metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t incorrect = 0;
  /// Same-seed passes inside this run disagreed on the modeled clock.
  bool nondeterministic = false;
  ModeledDigest digest;
  /// Human-readable facts printed before the result (sample counts...).
  std::vector<std::string> notes;
  void Note(const std::string& line) { notes.push_back(line); }
};

/// Host-clock samples of a timed phase of the workload loop.
struct PhaseSamples {
  std::vector<double> op_ms;
  double busy_seconds = 0.0;  ///< summed wall time of timed operations
};

/// op_ms_p50 / op_ms_p90 / ops_per_s of an untraced phase.
void ReportOps(const PhaseSamples& phase, Report* report);
/// trace.overhead_ratio: the traced phase's p50 over the untraced one's.
double OverheadRatio(const PhaseSamples& untraced, const PhaseSamples& traced);

/// Fills the per-layer metrics every workload reports identically
/// (0 where a layer is bypassed), so each traced run prints the full set.
void DefaultLayerMetrics(Report* report);
/// Adds trace.self_s.<layer> from the global tracer.
void AddSelfTimes(Report* report);

/// Full-precision rendering of a double (%.17g).
std::string Fmt(double value);

}  // namespace perfbench
