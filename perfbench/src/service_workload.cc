// service-open: the QueryService under open-loop seeded arrivals — the
// only path through qos admission, the degradation ladder and the
// service's execution memoization.
//
// Queries are priced at the loaded scale factor (project_to_sf = kSvcSf),
// and the primary plan (kPrimaryThreads pool workers) plus the serial
// degraded plan use kHostThreads host threads together. Each campaign is
// a fresh service over one shared database: Prepare, then one timed
// Run() to the modeled horizon. The service checks every distinct
// execution against ssb::ReferenceExecutor itself and counts mismatches
// in incorrect_results.
//
// Modeled latencies are taken from each request's due time (its arrival
// on the modeled timeline). The arrival generator is discrete-event, so
// it is never late: its lateness is 0 by construction.
#include <malloc.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "engine_common.h"
#include "service/service.h"
#include "workloads.h"

namespace perfbench {

using pmemolap::Result;
using pmemolap::Status;
namespace service = pmemolap::service;
namespace ssb = pmemolap::ssb;

namespace {

constexpr double kSvcSf = 0.02;
constexpr int kPrimaryThreads = kHostThreads - 1;
constexpr double kHorizonSeconds = 10.0;
/// Offered load of the measured campaigns, below the knee.
constexpr double kNominalQps = 250.0;
/// Rates the knee sweep offers; they bracket the knee.
constexpr double kSweepQps[] = {250.0, 500.0, 750.0, 1000.0, 1250.0, 1500.0};
/// Latency limit of the knee, modeled seconds.
constexpr double kSloSeconds = 2.0;
constexpr int kSetupReps = 9;
/// The table is the same for every seed: --seed drives the arrivals and
/// the tenant population, so seeds vary the traffic while the host work
/// of a campaign (13 executions, each checked against the reference)
/// stays put.
constexpr uint64_t kDataSeed = 42;

service::ServiceConfig CampaignConfig(double qps, uint64_t seed) {
  service::ServiceConfig config;
  config.workload.num_clients = 100;
  config.workload.arrival = service::ArrivalModel::kOpenLoop;
  config.workload.arrival_rate_qps = qps;
  config.workload.seed = seed;
  // A uniform mix keeps the modeled latency comparable across seeds (a
  // Zipf mix would make a different query hot for every seed).
  config.workload.query_zipf_s = 0.0;
  config.chaos.seed = seed ^ 0xC4A0'5000ULL;
  config.chaos.horizon_seconds = kHorizonSeconds;
  config.admission.max_concurrent = kHostThreads;
  config.admission.high_queue = 64;
  config.admission.normal_queue = 32;
  config.admission.batch_queue = 16;
  config.threads = kPrimaryThreads;
  config.degraded_threads = 1;
  config.project_to_sf = kSvcSf;
  // The service memoizes executions per actuator state, so with the
  // governor on, the host work of a campaign would depend on how many
  // states the seed happens to visit. ingest-durable measures the
  // governor instead.
  config.governor = false;
  return config;
}

/// Modeled latency of every attempted request from its due time; a
/// request that was shed, expired, failed or never finished counts as
/// over any limit.
std::vector<double> AttemptedLatencies(const service::ServiceReport& report) {
  std::vector<double> latencies;
  for (const service::RequestRecord& request : report.requests) {
    latencies.push_back(request.outcome == service::RequestOutcome::kCompleted
                            ? request.Latency()
                            : std::numeric_limits<double>::infinity());
  }
  return latencies;
}

uint64_t Unserved(const service::ServiceReport& report) {
  uint64_t count = 0;
  for (const service::RequestRecord& request : report.requests) {
    if (request.outcome != service::RequestOutcome::kCompleted) ++count;
  }
  return count;
}

/// Peak number of requests waiting for an execution slot at once, from
/// each request's submission to its grant (or to its end, if never
/// granted).
double PeakWaiting(const service::ServiceReport& report) {
  std::vector<std::pair<double, int>> edges;
  for (const service::RequestRecord& request : report.requests) {
    double leave = request.grant_seconds;
    if (leave < 0.0) leave = std::max(request.submit_seconds,
                                      request.complete_seconds);
    edges.emplace_back(request.submit_seconds, +1);
    edges.emplace_back(leave, -1);
  }
  std::sort(edges.begin(), edges.end());  // leaves sort before arrivals
  int waiting = 0, peak = 0;
  for (const auto& edge : edges) {
    waiting += edge.second;
    peak = std::max(peak, waiting);
  }
  return peak;
}

class ServiceWorkload {
 public:
  explicit ServiceWorkload(const Args& args) : args_(args) {}
  Result<Outcome> Run();

 private:
  /// One fresh service at `qps`: Prepare untimed, Run() timed into
  /// `phase` when non-null.
  Result<service::ServiceReport> Campaign(const ssb::Database& db, double qps,
                                          PhaseSamples* phase,
                                          double* setup_s = nullptr);
  /// Counts a nominal-rate campaign's requests into attempted/failed.
  void Account(const service::ServiceReport& report);

  const Args& args_;
  pmemolap::MemSystemModel model_;
  Outcome out_;
  uint64_t next_campaign_ = 1;
};

Result<service::ServiceReport> ServiceWorkload::Campaign(
    const ssb::Database& db, double qps, PhaseSamples* phase,
    double* setup_s) {
  // Hand the previous campaign's freed heap back to the OS first. A
  // campaign's process is small (~35 MiB), and without this peak_rss_mib
  // would jump by whatever fragmentation the earlier services' threads
  // happened to leave behind.
  malloc_trim(0);
  const Clock::time_point setup_start = Clock::now();
  service::QueryService svc(&db, &model_, CampaignConfig(qps, args_.seed));
  {
    ScopedSpan span("service.prepare");
    PMEMOLAP_RETURN_NOT_OK(svc.Prepare());
  }
  if (setup_s != nullptr) *setup_s = SecondsSince(setup_start);
  const Clock::time_point start = Clock::now();
  Result<service::ServiceReport> report = [&] {
    ScopedSpan span("service.run", next_campaign_++);
    return svc.Run();
  }();
  const double wall = SecondsSince(start);
  if (phase != nullptr) {
    phase->op_ms.push_back(1e3 * wall);
    phase->busy_seconds += wall;
  }
  if (report.ok()) {
    const service::ServiceCounters& c = report->counters;
    out_.incorrect += c.incorrect_results;
    if (c.incorrect_results > 0) {
      out_.Note(std::to_string(c.incorrect_results) +
                " incorrect results at " + Fmt(qps) + " q/s");
    }
  }
  return report;
}

void ServiceWorkload::Account(const service::ServiceReport& report) {
  out_.attempted += report.requests.size();
  out_.failed += Unserved(report);
}

Result<Outcome> ServiceWorkload::Run() {
  PMEMOLAP_RETURN_NOT_OK(CheckHostThreads(kPrimaryThreads + 1));
  Tracer& tracer = GlobalTracer();
  const bool trace = tracer.enabled();

  // Setup: dbgen + QueryService::Prepare, kSetupReps times; each rep's
  // campaign is the nominal one and must replay bit for bit.
  std::unique_ptr<ssb::Database> db;
  std::vector<double> setup_s, dbgen_s;
  std::vector<double> campaign_s;
  service::ServiceReport nominal;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    db.reset();
    malloc_trim(0);  // as in Campaign: the next dbgen must not stack on a hole
    ScopedSpan span("bench.setup");
    double gen_s = 0.0;
    Result<ssb::Database> generated = GenerateDatabase(kSvcSf, kDataSeed, &gen_s);
    if (!generated.ok()) return generated.status();
    db = std::make_unique<ssb::Database>(std::move(generated).value());
    double prepare_s = 0.0;
    PhaseSamples rep_phase;
    Result<service::ServiceReport> report =
        Campaign(*db, kNominalQps, &rep_phase, &prepare_s);
    if (!report.ok()) return report.status();
    dbgen_s.push_back(gen_s);
    setup_s.push_back(gen_s + prepare_s);
    campaign_s.push_back(1e-3 * rep_phase.op_ms.front());
    Account(*report);
    if (rep == 0) {
      nominal = std::move(report).value();
    } else if (report->Digest() != nominal.Digest()) {
      out_.nondeterministic = true;
      out_.Note("campaign digest differs across same-seed setup reps");
    }
  }

  // Knee sweep: modeled only, so one campaign per rate.
  double knee_qps = 0.0;
  {
    ScopedSpan span("bench.sweep");
    for (double qps : kSweepQps) {
      Result<service::ServiceReport> report = Campaign(*db, qps, nullptr);
      if (!report.ok()) return report.status();
      out_.failed += report->counters.failed_executions;
      const double p99 = Percentile(AttemptedLatencies(*report), 99.0);
      out_.digest.Add(report->Digest());
      out_.Note("sweep " + Fmt(qps) + " q/s: " +
                std::to_string(report->requests.size()) + " requests, " +
                std::to_string(Unserved(*report)) + " unserved, p99 " +
                Fmt(p99) + " s");
      if (p99 <= kSloSeconds) knee_qps = std::max(knee_qps, qps);
    }
  }
  out_.digest.Add(nominal.Digest());

  PhaseSamples untraced, traced;
  for (int traced_phase = 0; traced_phase <= (trace ? 1 : 0); ++traced_phase) {
    tracer.set_enabled(traced_phase == 1);
    PhaseSamples* phase = traced_phase == 1 ? &traced : &untraced;
    const double budget = trace ? args_.seconds / 2 : args_.seconds;
    ScopedSpan span("bench.loop");
    const Clock::time_point start = Clock::now();
    while (SecondsSince(start) < budget || phase->op_ms.size() < kMinSamples) {
      Result<service::ServiceReport> report = Campaign(*db, kNominalQps, phase);
      if (!report.ok()) return report.status();
      Account(*report);
      if (report->Digest() != nominal.Digest()) {
        out_.nondeterministic = true;
        out_.Note("campaign digest differs across same-seed campaigns");
      }
    }
  }
  tracer.set_enabled(trace);
  for (double ms : untraced.op_ms) campaign_s.push_back(1e-3 * ms);

  // Geomean over the queries of each query's mean latency (service time
  // plus queueing), so the figure does not move with how often each
  // query was drawn.
  std::map<ssb::QueryId, std::vector<double>> by_query;
  for (const service::RequestRecord& request : nominal.requests) {
    if (request.outcome == service::RequestOutcome::kCompleted) {
      by_query[request.query].push_back(request.Latency());
    }
  }
  std::vector<double> latencies;
  for (const auto& [query, samples] : by_query) {
    double sum = 0.0;
    for (double latency : samples) sum += latency;
    latencies.push_back(sum / static_cast<double>(samples.size()));
  }
  Report& r = out_.metrics;
  r.Set("setup_s", Median(setup_s), "s");
  ReportOps(untraced, &r);
  r.Set("modeled_s_geomean", Geomean(latencies), "s");
  out_.Note("host samples: " + std::to_string(untraced.op_ms.size()) +
            " campaigns of " + std::to_string(nominal.requests.size()) +
            " requests at " + Fmt(kNominalQps) + " q/s over " +
            Fmt(kHorizonSeconds) + " modeled s; generator lateness 0 s");
  if (!trace) return std::move(out_);

  DefaultLayerMetrics(&r);
  const service::ServiceCounters& c = nominal.counters;
  r.Set("ssb.dbgen_s", Median(dbgen_s), "s");
  r.Set("service.campaign_s", Median(campaign_s), "s");
  r.Set("service.svc_p50_s", Percentile(AttemptedLatencies(nominal), 50.0),
        "s");
  r.Set("service.svc_p99_s", Percentile(AttemptedLatencies(nominal), 99.0),
        "s");
  r.Set("service.knee_qps", knee_qps, "1/s");
  r.Set("service.real_executions", static_cast<double>(c.real_executions),
        "count");
  r.Set("service.cache_hit_ratio",
        static_cast<double>(c.cache_hits) /
            static_cast<double>(std::max<uint64_t>(
                1, c.cache_hits + c.real_executions)),
        "ratio");
  r.Set("service.degradation_transitions",
        static_cast<double>(nominal.degradation_log.size()), "count");
  r.Set("qos.shed_ratio",
        static_cast<double>(c.edge_shed + c.queue_shed) /
            static_cast<double>(std::max<uint64_t>(1, c.submitted)),
        "ratio");
  r.Set("qos.peak_waiting", PeakWaiting(nominal), "count");
  r.Set("trace.overhead_ratio", OverheadRatio(untraced, traced), "ratio");
  AddSelfTimes(&r);
  return std::move(out_);
}

}  // namespace

Result<Outcome> RunServiceOpen(const Args& args) {
  return ServiceWorkload(args).Run();
}

}  // namespace perfbench
