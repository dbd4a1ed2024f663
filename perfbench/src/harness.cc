#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>

namespace perfbench {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string Fmt(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void ModeledDigest::Bytes(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 1099511628211ULL;
  }
}

void ModeledDigest::Add(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Bytes(&bits, sizeof(bits));
}

void ModeledDigest::Add(uint64_t value) { Bytes(&value, sizeof(value)); }

void ModeledDigest::Add(const std::string& value) {
  Bytes(value.data(), value.size());
  Add(static_cast<uint64_t>(value.size()));
}

std::string ModeledDigest::Hex() const {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buffer;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (entries_.find(name) == entries_.end()) order_.push_back(name);
  entries_[name] = Entry{value, unit};
}

std::string Report::MetricsJson() const {
  std::string out = "{";
  for (size_t i = 0; i < order_.size(); ++i) {
    const Entry& entry = entries_.at(order_[i]);
    const double value = std::isfinite(entry.value) ? entry.value : 0.0;
    out += (i == 0 ? "\"" : ", \"") + order_[i] + "\": {\"value\": " +
           Fmt(value) + ", \"unit\": \"" + entry.unit + "\"}";
  }
  return out + "}";
}

void Report::Print() const {
  for (const std::string& name : order_) {
    const Entry& entry = entries_.at(name);
    std::printf("metric %-36s %.6g %s\n", name.c_str(), entry.value,
                entry.unit.c_str());
  }
}

int64_t Tracer::Begin(const std::string& name, uint64_t query_id) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.layer = name.substr(0, name.find('.'));
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  span.parent = open_.empty() ? -1 : open_.back();
  span.query_id = query_id;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int64_t>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  // Spans close in LIFO order on the single tracing thread.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  // Children of one parent run one after another on the tracing thread,
  // so the time they cover is the sum of their durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[span.layer] +=
        1e-9 * static_cast<double>(span.end_ns - span.start_ns - child_ns[i]);
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << span.name
        << "\", \"layer\": \"" << span.layer
        << "\", \"start_ns\": " << span.start_ns
        << ", \"end_ns\": " << span.end_ns << ", \"parent\": " << span.parent
        << ", \"query_id\": " << span.query_id << "}\n";
  }
  return static_cast<bool>(out);
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

namespace {

/// The layers whose self time the traced run reports.
const std::vector<std::string>& TracedLayers() {
  static const std::vector<std::string> kLayers = {
      "bench",  "ssb",      "engine",     "encoding", "memsys",
      "tiering", "governor", "durability", "service"};
  return kLayers;
}

}  // namespace

void DefaultLayerMetrics(Report* r) {
  r->Set("ssb.dbgen_s", 0.0, "s");
  r->Set("engine.prepare_s", 0.0, "s");
  r->Set("encoding.encode_s", 0.0, "s");
  // Scanned fact bytes are uncompressed unless the encoded store is on.
  r->Set("encoding.compression_ratio", 1.0, "ratio");
  for (int flight = 1; flight <= 4; ++flight) {
    r->Set("engine.execute_ms.flight" + std::to_string(flight), 0.0, "ms");
  }
  r->Set("engine.tuples_scanned", 0.0, "count");
  r->Set("engine.probes", 0.0, "count");
  r->Set("engine.agg_updates", 0.0, "count");
  for (const char* phase :
       {"scan", "probe", "materialize", "aggregate", "intermediate", "cpu"}) {
    r->Set(std::string("engine.modeled_phase_s.") + phase, 0.0, "s");
  }
  for (const char* medium : {"dram", "pmem", "ssd"}) {
    for (const char* dir : {"read", "write"}) {
      r->Set(std::string("engine.bytes.") + medium + "." + dir, 0.0, "B");
    }
  }
  r->Set("exec.cpu_util", 0.0, "ratio");
  r->Set("exec.morsels_per_query", 0.0, "count");
  r->Set("exec.steal_ratio", 0.0, "ratio");
  r->Set("memsys.price_us", 0.0, "us");
  r->Set("tiering.migrations", 0.0, "count");
  r->Set("tiering.scan_share.dram", 0.0, "ratio");
  r->Set("tiering.scan_share.ssd", 0.0, "ratio");
  r->Set("governor.actuations", 0.0, "count");
  r->Set("governor.read_workers_cap", 0.0, "count");
  r->Set("durability.ingest_ms_p50", 0.0, "ms");
  r->Set("durability.ingest_rows_per_s", 0.0, "1/s");
  r->Set("durability.modeled_persist_s", 0.0, "s");
  r->Set("durability.modeled_ingest_s", 0.0, "s");
  r->Set("durability.recover_s", 0.0, "s");
  r->Set("durability.recover_replayed_bytes", 0.0, "B");
  r->Set("durability.recover_modeled_s", 0.0, "s");
  r->Set("service.campaign_s", 0.0, "s");
  r->Set("service.svc_p50_s", 0.0, "s");
  r->Set("service.svc_p99_s", 0.0, "s");
  r->Set("service.knee_qps", 0.0, "1/s");
  r->Set("service.real_executions", 0.0, "count");
  r->Set("service.cache_hit_ratio", 0.0, "ratio");
  r->Set("service.degradation_transitions", 0.0, "count");
  r->Set("qos.shed_ratio", 0.0, "ratio");
  r->Set("qos.peak_waiting", 0.0, "count");
  r->Set("trace.overhead_ratio", 0.0, "ratio");
  for (const std::string& layer : TracedLayers()) {
    r->Set("trace.self_s." + layer, 0.0, "s");
  }
}

void ReportOps(const PhaseSamples& phase, Report* report) {
  report->Set("op_ms_p50", Median(phase.op_ms), "ms");
  report->Set("op_ms_p90", Percentile(phase.op_ms, 90.0), "ms");
  report->Set("ops_per_s",
              phase.busy_seconds > 0.0
                  ? static_cast<double>(phase.op_ms.size()) / phase.busy_seconds
                  : 0.0,
              "1/s");
}

double OverheadRatio(const PhaseSamples& untraced, const PhaseSamples& traced) {
  const double base = Median(untraced.op_ms);
  return base > 0.0 ? Median(traced.op_ms) / base : 0.0;
}

void AddSelfTimes(Report* report) {
  const std::map<std::string, double> self =
      GlobalTracer().SelfSecondsByLayer();
  for (const std::string& layer : TracedLayers()) {
    auto it = self.find(layer);
    report->Set("trace.self_s." + layer, it == self.end() ? 0.0 : it->second,
                "s");
  }
}

}  // namespace perfbench
